"""Checks on the test modules themselves."""

import ast
import collections
import glob
import os


def test_no_module_defines_a_function_or_class_twice():
    # Python keeps only the last `def test_x` of a module, and pytest never reports the
    # first, so a second definition would drop a test without a failure.
    twice = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        names = collections.Counter(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        repeated = [name for name, count in names.items() if count > 1]
        if repeated:
            twice[os.path.basename(path)] = repeated
    assert twice == {}
