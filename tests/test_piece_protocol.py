"""Callers read pieces through the ``Piece`` protocol, never by kind,
tail envelopes through their one form, never by spelling, and sampled
bounds on psi through ``row_profiles``, never by a second rule, and by
the attributes of its ``RowProfile``, never by string keys.

Only the spec loader maps kinds to classes and envelope spellings to
``TailEnvelope``; anywhere else an ``isinstance`` test on a piece class,
or a string naming an envelope spelling, is a ladder that a new kind
would have to extend.  Only ``domain`` samples an evaluator, and only
``domain`` validates psi: it does so when psi is built, so no caller
validates again or builds the structural facts itself.
"""

import ast
import pathlib

import koenigslab

PIECE_CLASSES = {
    "FiniteAnalytic", "OscillatorySample", "MinusInfinity", "PointSpike",
    "CantorCarrierPiece",
}
SRC = pathlib.Path(koenigslab.__file__).parent


def _names(node):
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def piece_kind_checks(source):
    """(line, classes) of every isinstance call naming a piece class."""
    return [
        (node.lineno, sorted(_names(node.args[1]) & PIECE_CLASSES))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names(node.args[1]) & PIECE_CLASSES
    ]


def test_no_piece_kind_checks_outside_the_loader():
    assert piece_kind_checks("isinstance(p, (int, domain.PointSpike))") == [
        (1, ["PointSpike"])
    ]
    assert piece_kind_checks("isinstance(p, Piece)") == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "specio.py"
        and (hits := piece_kind_checks(path.read_text(encoding="utf-8")))
    }
    assert found == {}, found


ENVELOPE_SPELLINGS = {"affine", "const", "log_pow"}


def envelope_spellings(source):
    """(line, string) of every string constant naming an envelope spelling."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in ENVELOPE_SPELLINGS
    ]


def test_no_envelope_spellings_outside_the_loader():
    assert envelope_spellings('if env.kind == "log_pow": pass') == [(1, "log_pow")]
    assert envelope_spellings('"affine_minorant"; "constant"') == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "specio.py"
        and (hits := envelope_spellings(path.read_text(encoding="utf-8")))
    }
    assert found == {}, found


RETIRED = {"sup_inf"}  # the interval bounds that row profiles replaced
SAMPLERS = {"_row_samples", "_evaluate"}  # domain's private evaluator sampling


def identifiers(source, names):
    """(line, identifier) of every name, attribute, definition or import
    spelled as one of ``names``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
            ident = node.name
        else:
            continue
        if ident in names:
            hits.append((node.lineno, ident))
    return hits


def test_bounds_on_psi_come_from_row_profiles_only():
    assert identifiers("_, v = psi.sup_inf(lo, hi)", RETIRED) == [(1, "sup_inf")]
    assert identifiers("def sup_inf(self, lo, hi): pass", RETIRED) == [(1, "sup_inf")]
    assert identifiers("from .domain import _evaluate as ev", SAMPLERS) == [(1, "_evaluate")]
    assert identifiers("psi.row_profiles(edges).m", RETIRED | SAMPLERS) == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := identifiers(
            path.read_text(encoding="utf-8"),
            RETIRED if path.name == "domain.py" else RETIRED | SAMPLERS,
        ))
    }
    assert found == {}, found


def row_profile_key_reads(source):
    """(line, key) of every string subscript of a ``row_profiles(...)``
    call, directly or through a name bound to one."""
    tree = ast.parse(source)

    def is_profile_call(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "row_profiles"
        )

    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_profile_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return [
        (node.lineno, node.slice.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
        and (
            is_profile_call(node.value)
            or (isinstance(node.value, ast.Name) and node.value.id in bound)
        )
    ]


def test_row_profiles_are_read_by_attribute():
    # a RowProfile has fields, not keys: a new bound is a new field that
    # every reader finds by name
    assert row_profile_key_reads("low = psi.row_profiles(edges)['m']") == [(1, "m")]
    assert row_profile_key_reads("prof = psi.row_profiles(e)\nM = prof['M']") == [(2, "M")]
    assert row_profile_key_reads("low = psi.row_profiles(edges).m; d['m']; p[0]") == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := row_profile_key_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}, found


LAZY = {"require_validated"}  # the guard that built facts on first read


def validation_calls(source):
    """(line, call) of every ``.validate(...)`` or ``DomainFacts.of(...)``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "validate":
            hits.append((node.lineno, "validate"))
        elif func.attr == "of" and _names(func.value) == {"DomainFacts"}:
            hits.append((node.lineno, "DomainFacts.of"))
    return hits


def test_psi_is_validated_only_when_built():
    assert identifiers("psi.require_validated()", LAZY) == [(1, "require_validated")]
    assert validation_calls("psi.validate()\nfacts = domain.DomainFacts.of(psi)") == [
        (1, "validate"), (2, "DomainFacts.of"),
    ]
    assert validation_calls("psi.facts; validate(psi); DomainFacts(of=1)") == []
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits = identifiers(source, LAZY)
        if path.name != "domain.py":
            hits += validation_calls(source)
        if hits:
            found[path.name] = hits
    assert found == {}, found
