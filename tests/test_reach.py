"""``bench/reach.py``'s tracer on a toy module, so the audit stays runnable without
running tier-1 inside tier-1."""

import importlib.util
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import reach  # noqa: E402

TOY = '''\
def step(x):
    y = x + 1
    if x >= 0:
        y += 1
    return y


def unused():
    return 0
'''


@pytest.mark.parametrize("xs, never_false", [((0, 1, 2), [3]), ((-1, 1), [])],
                         ids=["if-never-false", "if-both-ways"])
def test_reach_reports_the_line_that_never_ran_and_the_if_that_was_never_false(
        tmp_path, xs, never_false):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    before = sys.gettrace()

    found = reach.unreached(str(tmp_path), lambda: [toy.step(x) for x in xs])

    assert found == [(str(path), line, "never false") for line in never_false] + [
        (str(path), 9, "never ran")]
    assert sys.gettrace() is before
