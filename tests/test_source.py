"""Static checks of the package source, with the standard library's ast:
no dead code, no duplicate helpers, and no names parsed or branched on."""

import ast
from collections import defaultdict
from pathlib import Path

from exseq.calculus import DERIVATIVES
from exseq.polyspace import KINDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exseq"


def _trees():
    return {path: ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_function_is_referenced():
    # every function, method and property of the package is named in src/
    # somewhere besides its own definition: code that only tests call
    # belongs in tests/
    trees = _trees()
    defined = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not _is_dunder(node.name):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert sorted(f"{n} ({where})" for n, where in defined.items()
                  if n not in used) == []


def test_no_top_level_function_defined_twice():
    homes = defaultdict(list)
    for path, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
    assert {n: m for n, m in homes.items() if len(m) > 1} == {}


def _decorator_names(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        yield getattr(target, "attr", getattr(target, "id", ""))


def test_every_space_kind_is_built():
    # every kind of polyspace.KINDS is named in src/ outside the two tables
    # that define the kinds: a kind that no package code builds is dead
    named = set()
    for path, tree in _trees().items():
        tables = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                  and path.name == "polyspace.py"
                  and {getattr(t, "id", "") for t in top.targets}
                  & {"_BASES", "_CUTS"}
                  for node in ast.walk(top)}
        named |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and id(node) not in tables
                  and isinstance(node.value, str)}
    assert sorted(set(KINDS) - named) == []


def test_memo_is_the_only_cache():
    # every cached table goes through cache.memo: no functools cache
    # decorator in the package
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and {"lru_cache", "cache"} & set(_decorator_names(node))):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


# words of the operator, family and Friedrichs case names
_NAME_WORDS = ("grad", "curl", "div", "l2", "bubble", "full", "1d", "2d", "3d")
_NAME_HOLDERS = ("operator", "op", "kind", "case")


def _strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _strings(elt)


def _negative(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            or isinstance(node, ast.Constant) and isinstance(node.value, int)
            and node.value < 0)


def test_operator_names_are_not_parsed():
    # operators, families and cases are read from the complex table by key,
    # never parsed out of their names
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("startswith", "endswith")
                    and any(word in s for arg in node.args
                            for s in _strings(arg) for word in _NAME_WORDS)):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Subscript):
                held = getattr(node.value, "id", getattr(node.value, "attr", ""))
                index = node.slice
                bounds = ((index.lower, index.upper, index.step)
                          if isinstance(index, ast.Slice) else (index,))
                if held in _NAME_HOLDERS and any(_negative(b) for b in bounds):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_derivatives_are_not_branched_on():
    # what differs between derivatives is read from their coefficient
    # tensors, never from a comparison with a derivative's name
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    s in DERIVATIVES for operand in (node.left, *node.comparators)
                    for s in _strings(operand)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_reads_no_environment():
    # behaviour is set by arguments alone: no os.environ, os.getenv or
    # environ.get anywhere in the package
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else "")
            if name in ("environ", "environb", "getenv", "getenvb"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_imports_no_sympy():
    # no symbolic algebra at run time: suite fields are numpy expressions
    # with hyper-dual jets, and sympy is a test dependency only
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "sympy" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# values the package sets for its callers to read
_UNREAD_FIELDS = {
    "LiftingResult.space": "the lifting itself: the space of its slots",
    "LiftingResult.slots": "the lifting itself: its slot coefficients",
}


def test_every_field_is_read():
    # every dataclass field and every self attribute that the package sets
    # is read somewhere in src/: a value that only tests read belongs in
    # tests/
    trees = _trees()
    fields = set()
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if "dataclass" in _decorator_names(cls):
                fields |= {(node.target.id, cls.name) for node in cls.body
                           if isinstance(node, ast.AnnAssign)}
            fields |= {(node.attr, cls.name) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and getattr(node.value, "id", "") == "self"}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls}.{attr}" for attr, cls in fields if attr not in read}
    assert sorted(unread - set(_UNREAD_FIELDS)) == []


# defaults that no package call sets, each kept for callers outside src/
_UNSET_DEFAULTS = {
    "main(argv)": "the console script's input seam: None reads sys.argv",
}


def _passes(call, index, name):
    """Whether `call` passes the parameter at position `index` named
    `name`: by position, by keyword or through ** (a *args passes every
    position from its own on)."""
    if index is not None and any(
            i == index or isinstance(arg, ast.Starred) and i <= index
            for i, arg in enumerate(call.args)):
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def _defaulted(fn, shown, called, shift):
    """The defaulted parameters of a function definition, as (name shown,
    name called, position in a call or None, name); `shift` positions are
    filled before the call's first argument (a method's self)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = [(shown, called, i - shift, arg.arg)
           for i, arg in enumerate(positional)
           if i >= len(positional) - len(a.defaults)]
    return out + [(shown, called, None, arg.arg) for arg, default
                  in zip(a.kwonlyargs, a.kw_defaults) if default]


def _defaults_and_calls():
    """Every defaulted parameter of a top-level function or of a method of a
    top-level class, and the package's calls by the name called.

    A constructor is called by its class name and any other method by its
    attribute name, both with positions shifted past self. Methods of two
    classes that share a name share their calls, which can only hide a
    finding."""
    trees = _trees()
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                calls[name].append(node)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defaults = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, functions):
                defaults += _defaulted(node, node.name, node.name, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if isinstance(fn, functions):
                    called = node.name if fn.name == "__init__" else fn.name
                    shown = f"{node.name}.{fn.name}"
                    defaults += _defaulted(fn, shown, called, 1)
    return defaults, calls


def test_every_default_is_set_by_a_caller():
    # every defaulted parameter of a top-level function or method is passed
    # by some call in src/: a default that no package caller overrides is a
    # constant, and a knob that only tests turn belongs in tests/
    defaults, calls = _defaults_and_calls()
    unset = {f"{shown}({name})" for shown, fn, i, name in defaults
             if not any(_passes(c, i, name) for c in calls[fn])}
    assert sorted(unset - set(_UNSET_DEFAULTS)) == []


def test_every_default_is_relied_on():
    # every defaulted parameter of a top-level function or method is left out
    # by some call in src/: a default that every package caller overrides is a
    # required parameter. A call through ** may leave out any keyword, so
    # it relies on every default it could carry
    defaults, calls = _defaults_and_calls()

    def sets(call, index, name):
        return (index is not None and any(
            i == index or isinstance(arg, ast.Starred) and i <= index
            for i, arg in enumerate(call.args))
            or any(kw.arg == name for kw in call.keywords))

    always = {f"{shown}({name})" for shown, fn, i, name in defaults
              if all(sets(c, i, name) for c in calls[fn])}
    assert sorted(always) == []


def test_only_refsimplex_builds_cells():
    # cell geometry has one home: cells, edges and faces are constructed in
    # refsimplex alone, and every other module asks a cell for its boundary
    found = []
    for path, tree in _trees().items():
        if path.name == "refsimplex.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name in ("Cell", "Edge", "Face"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_refsimplex_names_the_reference_cell_wrapper():
    # package code takes a Cell: no other module imports, calls or reads
    # ReferenceCell
    found = []
    for path, tree in _trees().items():
        if path.name == "refsimplex.py":
            continue
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            names += [a.name for a in getattr(node, "names", [])
                      if isinstance(a, ast.alias)]
            if "ReferenceCell" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_REFERENCE_CELL_READS = ("cell", "max_angle", "regularity_index")


def test_reference_cells_are_read_at_once():
    # every make_reference_cell(...) call is read for its cell or its angle
    # data on the spot, so the wrapper itself never travels
    found = []
    for path, tree in _trees().items():
        read = {id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in _REFERENCE_CELL_READS}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "make_reference_cell"
                    and id(node) not in read):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_pinv_reads_the_svd_cutoff():
    # one rank cutoff: every pseudo-inverse decides rank by
    # polyspace.SVD_CUTOFF, as the package's own SVD rank decisions do
    found = []
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", "")) == "pinv"):
                rcond = {k.arg: k.value for k in node.keywords}.get("rcond")
                name = getattr(rcond, "attr", getattr(rcond, "id", None))
                if name != "SVD_CUTOFF":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# where sobolev.py may switch on the fractional order s: the two methods
# that apply the one factor F of H_s = F F^T, and the one range check
_ORDER_SWITCHES = ("half", "half_inverse", "_check_order")


def _is_number(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def test_fractional_order_is_switched_on_once():
    # every fractional, dual and surrogate form reads `half` or
    # `half_inverse`: the order s is compared with a number nowhere else
    # in sobolev.py, so no second copy of the order's cases comes back
    tree = ast.parse((PACKAGE / "sobolev.py").read_text())
    allowed = {id(node) for top in ast.walk(tree)
               if isinstance(top, ast.FunctionDef)
               and top.name in _ORDER_SWITCHES for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in allowed:
            operands = (node.left, *node.comparators)
            if (any(getattr(o, "id", None) == "s" for o in operands)
                    and any(_is_number(o) for o in operands)):
                found.append(f"sobolev.py:{node.lineno}")
    assert found == []


# what builds a norm's graph part: sobolev.py reads these names in `_parts`
# alone, so the error, the integer minimisers and the fractional surrogates
# read one definition of every norm's parts
_GRAPH_PART_NAMES = ("_FAMILY", "derivative_name", "DERIVATIVES")


def test_graph_part_is_defined_once():
    tree = ast.parse((PACKAGE / "sobolev.py").read_text())
    allowed = {id(node) for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "_parts"
               for node in ast.walk(top)}
    found = [f"sobolev.py:{node.lineno}" for node in ast.walk(tree)
             if id(node) not in allowed and (
                 isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id in _GRAPH_PART_NAMES
                 or isinstance(node, ast.Attribute)
                 and node.attr in _GRAPH_PART_NAMES)]
    assert found == []
