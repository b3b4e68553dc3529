"""Static checks over the library's source files, and its import cost."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "longzeta"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently disappear; the library raises instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


# bench/spans.py wraps these by name to time them; nothing in the library
# calls them
BENCH_WRAPPED = {"det_division_free", "incidence_matrix", "leading_matrix"}


def _names_used(node, into):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            into[sub.id] = into.get(sub.id, 0) + 1
        elif isinstance(sub, ast.Attribute):
            into[sub.attr] = into.get(sub.attr, 0) + 1


def test_every_top_level_name_is_used_in_the_library():
    # a function or class only the tests call belongs in the tests; a name
    # in __all__ is no exception, since the library calls every one of them
    used, defined = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _names_used(tree, used)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = {}
                _names_used(node, inside)
                defined.append((path.name, node.name, inside.get(node.name, 0)))
    assert len(defined) > 50
    unused = [
        "%s:%s" % (file, name) for file, name, self_refs in defined
        if used.get(name, 0) == self_refs and name not in BENCH_WRAPPED
    ]
    assert unused == []


# methods only a caller outside src/longzeta names: argparse calls
# ArgumentParser.error, and README documents RingT.is_zero_divisor
METHOD_EXEMPT = {("_Parser", "error"), ("RingT", "is_zero_divisor")}


def _attrs_used(node, into):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            into[sub.attr] = into.get(sub.attr, 0) + 1


def test_every_method_is_used_in_the_library():
    # a method only the tests call belongs in the tests; dunders are
    # called by the language. A method is reached through an attribute
    # (x.name), so only attribute accesses count and a same-named function
    # or local variable hides nothing (connect_sum's local `shifted` once
    # hid ZetaPolynomial.shifted). The match is still by name, so another
    # class's same-named method or attribute hides a method: ZetaPolynomial's
    # parse and eval_pq1 went unflagged behind Diagram.parse and
    # RingT.eval_pq1, and were deleted by hand
    used, defined = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _attrs_used(tree, used)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    inside = {}
                    _attrs_used(node, inside)
                    defined.append((cls.name, node.name, inside.get(node.name, 0)))
    assert ("RingT", "render", 0) in defined and len(defined) > 30
    unused = [
        "%s.%s" % (cls, name) for cls, name, self_refs in defined
        if used.get(name, 0) == self_refs and (cls, name) not in METHOD_EXEMPT
    ]
    assert unused == []


def test_every_module_level_import_is_used():
    # an import nothing reads is left over from code that moved away;
    # __future__ imports and the names a module lists in __all__ are exempt
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        public, imported = set(), []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [
                    (alias.asname or alias.name).split(".")[0] for alias in node.names
                ]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                public.update(ast.literal_eval(node.value))
        unused += [
            "%s:%s" % (path.name, name) for name in imported
            if name not in used and name not in public
        ]
    assert unused == []


# cli.main is the console entry point: the tests and bench/run.py pass it
# argv, and nothing in the library does
DEFAULT_EXEMPT = {("main", "argv")}


def _passes(call, index, name):
    """Whether call may pass the parameter called name: by keyword or a
    ** mapping, or at positional index (None when keyword-only) or
    through a * sequence."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(
        isinstance(arg, ast.Starred) for arg in call.args
    )


def test_every_defaulted_parameter_is_passed_in_the_library():
    # a default no library call overrides serves only the tests
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaulted = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            defaulted += [(node.name, i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (node.name, None, a.arg)
                for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
    assert len(defaulted) > 5
    unpassed = [
        "%s:%s" % (func, name) for func, index, name in defaulted
        if (func, name) not in DEFAULT_EXEMPT
        and not any(_passes(call, index, name) for call in calls.get(func, []))
    ]
    assert unpassed == []


# run in a fresh interpreter that sees neither the site packages nor the
# environment; json is imported only after the modules loaded are listed
STARTUP = """
import sys
sys.path.insert(0, %r)
import longzeta
print(sorted({"dataclasses", "longzeta.certificate"} & sys.modules.keys()))
import longzeta.cli
print(sorted({"dataclasses", "longzeta.certificate"} & sys.modules.keys()))
import json
cert = longzeta.certify_minimality(longzeta.generate("virtual_kink"))
print(json.dumps(cert.to_json(), sort_keys=True))
"""


def test_import_loads_no_dataclasses():
    # dataclasses, with inspect, ast and dis behind it, would be most of
    # the import time, so only certify_minimality loads the certificate;
    # the CLI's moves and reports are plain classes, so every command is
    # spared it too
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STARTUP % str(SRC.parent)],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout.splitlines()
    assert out[:2] == ["[]", "[]"]
    assert json.loads(out[2]) == {
        "detB": "-1*q^1 - 1*(p-q)", "k": 1, "minimal": True,
        "sk_coeff": "-1*q^1 - 1*(p-q)", "top_deg": 1,
    }
