"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- ingestion / validation ---

class MissingFile(ToolkitError):
    def __init__(self, path):
        super().__init__(f"missing file: {path}")
        self.path = path


class UnreadableFile(ToolkitError):
    def __init__(self, path, reason):
        super().__init__(f"cannot read {path}: {reason}")
        self.path = path


class MalformedRecord(ToolkitError):
    def __init__(self, path, line_number, detail):
        super().__init__(f"malformed record at {path}:{line_number} ({detail})")
        self.path = path
        self.line_number = line_number


class ShapeMismatch(ToolkitError):
    def __init__(self, model_id, detail):
        super().__init__(f"shape mismatch for model {model_id!r}: {detail}")
        self.model_id = model_id


class DuplicateEntry(ToolkitError):
    def __init__(self, model_id, split_id):
        super().__init__(f"duplicate manifest entry ({model_id!r}, {split_id!r})")
        self.model_id = model_id
        self.split_id = split_id


class MetricTaskMismatch(ToolkitError):
    def __init__(self, metric, task, where=""):
        msg = f"metric {metric!r} is incompatible with task {task!r}"
        super().__init__(f"{msg} at {where}" if where else msg)
        self.metric = metric
        self.task = task


class ExampleError(ToolkitError):
    """An invariant broken at one example of a log, or (``example_index`` -1, "in the
    log") by the whole log; ``load_log`` adds the file and line to the message."""
    summary = ""

    def __init__(self, example_index, detail=""):
        where = "in the log" if example_index < 0 else f"at example {example_index}"
        msg = f"{self.summary} {where}"
        super().__init__(f"{msg}: {detail}" if detail else msg)
        self.example_index = example_index

    def at(self, path, line_number):
        """Name, in the message, the file and line the example was read from."""
        self.args = (f"{self} (line {line_number} of {path})",)


class ArgmaxMismatch(ExampleError):
    summary = "stored prediction disagrees with logit argmax"


class RangeViolation(ExampleError):
    summary = "index out of range"


class LengthViolation(ExampleError):
    summary = "vector length mismatch"


# --- metrics / fitting ---

class EmptyLog(ToolkitError):
    pass


class DegenerateFit(ToolkitError):
    pass


class DomainError(ToolkitError):
    pass


class InsufficientModels(ToolkitError):
    pass


class MissingLogits(ToolkitError):
    pass


# --- synthesis / reporting ---

class InvalidConfig(ToolkitError):
    pass


class ZeroTruth(ToolkitError):
    pass


class LengthMismatch(ToolkitError):
    pass
