"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- ingestion / validation ---

class MissingFile(ToolkitError):
    def __init__(self, path):
        super().__init__(f"missing file: {path}")
        self.path = path


class MalformedRecord(ToolkitError):
    def __init__(self, path, line_number, detail=""):
        msg = f"malformed record at {path}:{line_number}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.path = path
        self.line_number = line_number


class ShapeMismatch(ToolkitError):
    def __init__(self, model_id, detail=""):
        msg = f"shape mismatch for model {model_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.model_id = model_id


class DuplicateEntry(ToolkitError):
    def __init__(self, model_id, split_id):
        super().__init__(f"duplicate manifest entry ({model_id!r}, {split_id!r})")
        self.model_id = model_id
        self.split_id = split_id


class MetricTaskMismatch(ToolkitError):
    def __init__(self, metric, task):
        super().__init__(f"metric {metric!r} is incompatible with task {task!r}")
        self.metric = metric
        self.task = task


class ArgmaxMismatch(ToolkitError):
    def __init__(self, example_index):
        super().__init__(f"stored prediction disagrees with logit argmax at example {example_index}")
        self.example_index = example_index


class RangeViolation(ToolkitError):
    def __init__(self, example_index, detail=""):
        msg = f"index out of range at example {example_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.example_index = example_index


class LengthViolation(ToolkitError):
    def __init__(self, example_index, detail=""):
        msg = f"vector length mismatch at example {example_index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.example_index = example_index


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
