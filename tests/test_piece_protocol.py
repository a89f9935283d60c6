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

Evaluators, too, are read through one protocol, ``expr.Evaluator``: no
code outside the loader tests an evaluator's class or looks up a
``row_range`` it may lack, and no evaluator call sits in a catch-all
``except`` that would turn a bug into failed samples.

A canonical domain's two maps, ``re_map`` and ``im_map``, are read only
in ``hardy``: ``circle_nodes`` is the one way into them.
"""

import ast
import pathlib

import koenigslab
from koenigslab import domain


def _subclass_names(cls):
    return {name for sub in cls.__subclasses__() for name in {sub.__name__} | _subclass_names(sub)}


PIECE_CLASSES = _subclass_names(domain.Piece)
SRC = pathlib.Path(koenigslab.__file__).parent


def _names(node):
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def piece_kind_checks(source, classes=PIECE_CLASSES):
    """(line, classes) of every isinstance call naming one of ``classes``,
    by default a piece class."""
    return [
        (node.lineno, sorted(_names(node.args[1]) & classes))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names(node.args[1]) & classes
    ]


def test_no_piece_kind_checks_outside_the_loader():
    # every subclass of Piece, however deep, is a piece class
    assert {"FiniteAnalytic", "MinusInfinity", "CantorCarrierPiece"} <= PIECE_CLASSES
    assert piece_kind_checks("isinstance(p, (int, domain.MinusInfinity))") == [
        (1, ["MinusInfinity"])
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


def callers(source, name):
    """Sorted names of the functions whose bodies mention ``name``."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        and any(
            (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name
            for node in ast.walk(fn)
        )
    })


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
    # inside domain, the one row-bounds rule is the only sampler of rows:
    # every piece reaches _row_samples through _row_range
    assert callers("def f(): g()\ndef h(): f()\ndef k(): h.f", "f") == ["h", "k"]
    domain_source = (SRC / "domain.py").read_text(encoding="utf-8")
    assert callers(domain_source, "_row_samples") == ["_row_range"]


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


FACT_READS = {"liminf_neg_inf_set", "facts"}  # psi's structural facts


def fact_reads(source, owner):
    """(line, name) of every read of psi's structural facts outside the
    function named ``owner``."""
    tree = ast.parse(source)
    owned = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == owner
        for node in ast.walk(fn)
    }
    return [
        (node.lineno, ident)
        for node in ast.walk(tree)
        if id(node) not in owned
        and (ident := node.attr if isinstance(node, ast.Attribute)
             else node.id if isinstance(node, ast.Name) else None) in FACT_READS
    ]


def test_the_raster_reads_facts_in_complement_components_only():
    # the seal comes from the row profile; E still feeds the window check
    # and the exactness gate, and only through this one function
    owner = "complement_components"
    assert fact_reads("def complement_components(psi):\n    psi.liminf_neg_inf_set()", owner) == []
    assert fact_reads("def _grid(psi):\n    E = psi.facts.E", owner) == [(2, "facts")]
    assert fact_reads("def f(psi):\n    return liminf_neg_inf_set(psi)", owner) == [
        (2, "liminf_neg_inf_set")
    ]
    assert fact_reads((SRC / "raster.py").read_text(encoding="utf-8"), owner) == []


def calls(source, names):
    """(line, name) of every call of a function or method named in ``names``."""
    return [
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for name in sorted(_names(node.func) & names)
    ]


PROBES = {"row_profiles", "exact_membership", "hardy_membership"}


def test_whole_line_routes_read_closed_forms_not_probes():
    # completeness reads Lambda_p off the canonical ends and bounds psi
    # above by its envelopes, so it samples no row and probes no lam;
    # only classify brackets slopes, so the slope decision has one home
    assert calls("psi.row_profiles([-64.0, 64.0]).M[0]", PROBES) == [(1, "row_profiles")]
    assert calls("if exact_membership(lam, dom, p).status: pass", PROBES) == [
        (1, "exact_membership")
    ]
    assert calls("f = psi.row_profiles; frequency_floor(dom, p)", PROBES) == []
    assert calls((SRC / "completeness.py").read_text(encoding="utf-8"), PROBES) == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "classify.py"
        and (hits := calls(path.read_text(encoding="utf-8"), {"slope_brackets"}))
    }
    assert found == {}, found


def lambda_ladders(source):
    """(line) of every ``dyadic_limit_estimate`` call handed a lambda."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _names(node.func) == {"dyadic_limit_estimate"}
        and any(isinstance(arg, ast.Lambda) for arg in (*node.args, *(
            kw.value for kw in node.keywords)))
    ]


def test_dyadic_ladders_are_handed_the_evaluator_itself():
    # a lambda hides the Expression, and the ladder falls back to one
    # scalar call per height without notice
    assert lambda_ladders("dyadic_limit_estimate(lambda t: ev(t), y0, 'left')") == [1]
    assert lambda_ladders("domain.dyadic_limit_estimate(f=lambda t: t, y0=0, side='left')") == [1]
    assert lambda_ladders("dyadic_limit_estimate(self.evaluator, y0, side, d); f(lambda t: t)") == []
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := lambda_ladders(path.read_text(encoding="utf-8")))
    }
    assert found == {}, found


EVALUATOR_CLASSES = {"Expression", "_Translated"}
# the evaluator type tests and catch-all fallbacks that the protocol replaced
RETIRED_EVALUATION = {"_CHECKED", "_evaluate", "_safe_eval"}


def attribute_lookups(source, name):
    """(line, function) of every getattr or hasattr call naming ``name``."""
    return [
        (node.lineno, node.func.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == name
    ]


def catch_alls(source):
    """(line) of every bare ``except`` or ``except Exception``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or _names(node.type) & {"Exception", "BaseException"})
    ]


def test_evaluators_are_read_through_their_protocol():
    # specio still reads an Expression's source to save it
    assert piece_kind_checks("isinstance(ev, (float, Expression))", EVALUATOR_CLASSES) == [
        (1, ["Expression"])
    ]
    assert piece_kind_checks("isinstance(ev, Evaluator)", EVALUATOR_CLASSES) == []
    assert attribute_lookups('getattr(ev, "row_range", None); hasattr(f, "row_range")',
                             "row_range") == [(1, "getattr"), (1, "hasattr")]
    assert attribute_lookups("ev.row_range(lo, hi); getattr(ev, name)", "row_range") == []
    assert catch_alls("try: f()\nexcept Exception: pass\ntry: g()\nexcept: pass") == [2, 4]
    assert catch_alls("try: f()\nexcept (ArithmeticError, ValueError): pass") == []
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits = attribute_lookups(source, "row_range") + identifiers(source, RETIRED_EVALUATION)
        if path.name != "specio.py":
            hits += piece_kind_checks(source, EVALUATOR_CLASSES)
        if path.name in ("domain.py", "expr.py", "battery.py"):
            hits += catch_alls(source)
        if hits:
            found[path.name] = hits
    assert found == {}, found


# the flag and the check helper that one evaluation path replaced
RETIRED_CALL_PATHS = {"array_exact", "_checked"}


def call_overrides(sources, base="Evaluator"):
    """(class, line) of every class deriving from ``base``, directly or
    through another class in ``sources``, that defines ``__call__``."""
    classes = [
        node for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    derived, grew = {base}, True
    while grew:
        more = {c.name for c in classes if {n for b in c.bases for n in _names(b)} & derived}
        derived, grew = derived | more, not more <= derived
    return [
        (c.name, fn.lineno)
        for c in classes
        if c.name in derived - {base}
        for fn in c.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__call__"
    ]


def test_every_evaluator_call_takes_the_one_path():
    # a height is a one-element array of the base call, so no evaluator has
    # a second path, or a flag saying where the two differ
    assert call_overrides(["class A(Evaluator):\n    def __call__(self, y): pass"]) == [("A", 2)]
    assert call_overrides([
        "class A(expr.Evaluator):\n    def values(self, ys): pass",
        "class B(A):\n    def __call__(self, y): pass",
        "class C:\n    def __call__(self, y): pass",
    ]) == [("B", 2)]
    assert identifiers("e.array_exact; self._checked(y, out)", RETIRED_CALL_PATHS) == [
        (1, "array_exact"), (1, "_checked"),
    ]
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = {
        name: hits for name, source in sources.items()
        if (hits := identifiers(source, RETIRED_CALL_PATHS))
    }
    assert found == {}, found
    assert call_overrides(sources.values()) == []


# the closure compiler that the expression tree and its one interpreter replaced
RETIRED_COMPILER = {"_apply", "_fold", "_materialized", "_fn"}


def lambdas(source):
    """(line) of every lambda."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Lambda)]


def test_a_formula_has_one_representation():
    # the parser builds a tree that one interpreter walks; a closure
    # compiler beside it would be a second representation of each formula
    assert sorted(identifiers("_fold(f, a); e._fn(ys); g = _materialized", RETIRED_COMPILER)) == [
        (1, "_fn"), (1, "_fold"), (1, "_materialized"),
    ]
    assert lambdas("f = lambda y: y\ng(lambda: 0)") == [1, 2]
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := identifiers(path.read_text(encoding="utf-8"), RETIRED_COMPILER))
    }
    assert found == {}, found
    assert lambdas((SRC / "expr.py").read_text(encoding="utf-8")) == []


CANONICAL_MAPS = {"re_map", "im_map"}
RETIRED_MAPS = {"real_map"}  # the one map that gave both parts at once


def test_canonical_maps_are_read_through_circle_nodes_only():
    # only hardy builds nodes, so a real-frequency query that reads Re T
    # alone is the only kind of reader that can skip Im T
    assert sorted(identifiers("x = dom.re_map(u, v); dom.im_map", CANONICAL_MAPS)) == [
        (1, "im_map"), (1, "re_map"),
    ]
    assert identifiers("x, y = hardy.circle_nodes(dom, j, n)", CANONICAL_MAPS) == []
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits = identifiers(source, RETIRED_MAPS)
        if path.name != "hardy.py":
            hits += identifiers(source, CANONICAL_MAPS)
        if hits:
            found[path.name] = hits
    assert found == {}, found
