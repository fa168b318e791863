"""The work budget: one table of limits, one check, one module."""

import ast
import re
from pathlib import Path

import pytest

import qfp
from qfp.errors import LIMITS, ResourceLimitError, check

SOURCES = sorted(Path(qfp.__file__).parent.glob("*.py"))


def _calls(node, name):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None))
            == name]


class TestCheck:
    def test_limit_is_admitted_and_one_past_refused(self):
        for name, limit in LIMITS.items():
            check(name, limit)
            with pytest.raises(ResourceLimitError, match=f"^{name}: "):
                check(name, limit + 1)

    def test_message_names_entry_amount_and_limit(self):
        with pytest.raises(ResourceLimitError) as err:
            check("oracle word steps", (2, 20), 1025)
        assert str(err.value) == (
            "oracle word steps: 2^20 x 1025 exceeds the limit of "
            f"{1 << 30}")

    def test_huge_powers_are_never_formed(self):
        # each would take longer than the test run to multiply out
        with pytest.raises(ResourceLimitError):
            check("oracle word steps", (2, 10**20))
        with pytest.raises(ResourceLimitError):
            check("SMP scored pairs", (10**20, 3), (2, 10**40))
        check("SMP scored pairs", (1, 10**20), (1, 10**20), (2, 1), 7071,
              7071)

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            check("bytes", 1)


class TestOneModule:
    # the admission policy stays in errors.py: no other module raises the
    # error itself or defines a cap of its own
    def test_error_raised_only_by_check(self):
        for path in SOURCES:
            tree = ast.parse(path.read_text())
            allowed = []
            if path.name == "errors.py":
                [func] = [f for f in tree.body
                          if isinstance(f, ast.FunctionDef)
                          and f.name == "check"]
                allowed = _calls(func, "ResourceLimitError")
                assert len(allowed) == 1
            assert _calls(tree, "ResourceLimitError") == allowed, path.name

    def test_no_budget_constant_outside_errors(self):
        cap = re.compile(r"BUDGET|GUARD|LIMIT|MAX|CAP")
        for path in SOURCES:
            if path.name == "errors.py":
                continue
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                    assert not [n for n in names if cap.search(n)], path.name
