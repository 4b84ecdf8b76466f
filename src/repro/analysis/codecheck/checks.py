"""The rule checkers of ``repro check-code``.

Every checker takes a :class:`Context` (parsed modules, call graph,
zones, configuration) and yields :class:`RawFinding` tuples; the engine
applies suppression comments and converts survivors to the pipeline's
:class:`~repro.analysis.findings.Finding` type.  Checkers are
deliberately conservative pattern matchers over the AST: a construct
they cannot prove problematic is not flagged (the call graph resolves
the package's own idioms, not arbitrary Python).

Rule catalog (13 families) — see docs/ANALYSIS.md "Code invariants"
for the prose version:

====================== ===============================================
``det/wall-clock``      ``time.*`` / ``datetime.*`` in sim-core
``det/unseeded-random`` stdlib ``random``, global NumPy randomness, or
                        argument-less ``default_rng()`` in sim-core
``det/float-cycles``    float32/float16 narrowing in sim-core (the
                        bitwise contract is exact float64 round-trip)
``det/unsorted-iteration`` iterating directory listings or sets
                        without ``sorted()`` (anywhere)
``io/bare-write``       non-atomic ``open(.., "w")`` / ``Path.write_*``
                        in durable-io or emitter modules
``io/digest-gap``       ``atomic_replace`` in durable-io with no
                        sha256/digest within 3 call-graph hops
``io/json-unsorted``    ``json.dump(s)`` without ``sort_keys=True`` in
                        durable-io or emitter modules
``mp/fork-unsafe``      lambda/closure/bound-method at a pool
                        submission site (anywhere)
``mp/global-mutation``  ``global`` rebinding inside a submitted task
                        (``initializer=`` hooks exempt)
``mp/shm-leak``         ``publish_shm`` without ``release_shm`` in a
                        ``finally`` of the same function
``api/env-knob``        ``os.environ``/``os.getenv`` outside the knob
                        registry module
``api/knob-undeclared`` ``REPRO_*`` literal naming no declared knob
``exc/silent-swallow``  bare/broad except (or ``suppress(Exception)``)
                        that drops the error in durable-io modules
====================== ===============================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from .callgraph import FunctionInfo, ModuleScope, resolve_callable
from .loader import Module
from .zones import Zones

__all__ = ["Context", "RawFinding", "CHECKERS", "run_checks"]

_KNOB_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: numpy.random functions that touch hidden global state.
_NP_GLOBAL_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "bytes",
    "uniform", "normal", "standard_normal", "poisson", "exponential",
})

_NARROW_FLOATS = frozenset({"float32", "float16", "half", "single"})


class RawFinding(NamedTuple):
    rule: str
    module: str  # dotted module name
    lineno: int
    message: str
    detail: Dict


@dataclass
class Context:
    modules: Dict[str, Module]
    functions: Dict[str, FunctionInfo]
    scopes: Dict[str, ModuleScope]
    zones: Zones
    knobs_module: str
    known_knobs: frozenset


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def _root_name(expr: ast.AST) -> Optional[str]:
    """Leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _module_of_root(name: str, scope: ModuleScope) -> Optional[str]:
    """Absolute module a bare name refers to, if it is a module alias."""
    if name in scope.module_aliases:
        return scope.module_aliases[name]
    if name in scope.from_imports:
        base, attr = scope.from_imports[name]
        return f"{base}.{attr}"
    return None


def _numpy_alias(scope: ModuleScope) -> Set[str]:
    return {
        local for local, target in scope.module_aliases.items()
        if target in ("numpy", "np")
    }


def _sim_core_functions(ctx: Context) -> Iterator[FunctionInfo]:
    for qual in sorted(ctx.zones.sim_core):
        yield ctx.functions[qual]


def _mode_of_open(call: ast.Call, is_method: bool) -> Optional[str]:
    """Literal mode string of an ``open``-style call, if statically known.

    For builtin ``open`` the mode is the second positional argument;
    for ``Path.open`` it is the first.  Returns ``None`` when absent or
    dynamic (absent means ``"r"`` — never a write).
    """
    pos = 0 if is_method else 1
    mode_expr: Optional[ast.AST] = None
    if len(call.args) > pos:
        mode_expr = call.args[pos]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_expr = kw.value
    if isinstance(mode_expr, ast.Constant) and isinstance(mode_expr.value, str):
        return mode_expr.value
    return None


def _mentions_tmp(expr: ast.AST) -> bool:
    """Whether any identifier in *expr* names a temp path (``tmp``...)."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and "tmp" in sub.id:
            return True
        if isinstance(sub, ast.Attribute) and "tmp" in sub.attr:
            return True
    return False


def _is_exception_name(expr: ast.AST) -> bool:
    name = expr.attr if isinstance(expr, ast.Attribute) else (
        expr.id if isinstance(expr, ast.Name) else None
    )
    return name in ("Exception", "BaseException")


def _enclosing_function(
    ctx: Context, module: str, node: ast.AST
) -> Optional[FunctionInfo]:
    for info in ctx.functions.values():
        if info.module != module:
            continue
        for sub in ast.walk(info.node):
            if sub is node:
                return info
    return None


# ----------------------------------------------------------------------
# det/* — determinism in the sim-core zone
# ----------------------------------------------------------------------

def check_wall_clock(ctx: Context) -> List[RawFinding]:
    out = []
    for info in _sim_core_functions(ctx):
        scope = ctx.scopes[info.module]
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            root = _root_name(func) if isinstance(func, ast.Attribute) else None
            if root is not None and _module_of_root(root, scope) in (
                "time", "datetime"
            ):
                out.append(RawFinding(
                    "det/wall-clock", info.module, node.lineno,
                    f"{ast.unparse(func)}() in sim-core function "
                    f"{info.qual.split(':')[1]} breaks bitwise determinism",
                    {"function": info.qual},
                ))
            elif isinstance(func, ast.Name) and func.id in scope.from_imports:
                base, _ = scope.from_imports[func.id]
                if base in ("time", "datetime"):
                    out.append(RawFinding(
                        "det/wall-clock", info.module, node.lineno,
                        f"{func.id}() (from {base}) in sim-core function "
                        f"{info.qual.split(':')[1]}",
                        {"function": info.qual},
                    ))
    return out


def check_unseeded_random(ctx: Context) -> List[RawFinding]:
    out = []
    for info in _sim_core_functions(ctx):
        scope = ctx.scopes[info.module]
        np_names = _numpy_alias(scope)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # stdlib random module (always hidden global state)
            root = _root_name(func) if isinstance(func, ast.Attribute) else None
            if root is not None and _module_of_root(root, scope) == "random":
                out.append(RawFinding(
                    "det/unseeded-random", info.module, node.lineno,
                    f"stdlib random ({ast.unparse(func)}) in sim-core "
                    f"function {info.qual.split(':')[1]}",
                    {"function": info.qual},
                ))
                continue
            # np.random.<global-state fn>
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _NP_GLOBAL_RANDOM
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in np_names
            ):
                out.append(RawFinding(
                    "det/unseeded-random", info.module, node.lineno,
                    f"global-state numpy randomness "
                    f"({ast.unparse(func)}) in sim-core",
                    {"function": info.qual},
                ))
                continue
            # default_rng() with no seed argument
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr == "default_rng" and not node.args and not node.keywords:
                out.append(RawFinding(
                    "det/unseeded-random", info.module, node.lineno,
                    "default_rng() without a seed in sim-core",
                    {"function": info.qual},
                ))
    return out


def check_float_cycles(ctx: Context) -> List[RawFinding]:
    def narrow_token(expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Constant) and expr.value in _NARROW_FLOATS:
            return str(expr.value)
        if isinstance(expr, ast.Attribute) and expr.attr in _NARROW_FLOATS:
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in _NARROW_FLOATS:
            return expr.id
        return None

    out = []
    for info in _sim_core_functions(ctx):
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = narrow_token(func)
            if hit is None and isinstance(func, ast.Attribute) and (
                func.attr == "astype" and node.args
            ):
                hit = narrow_token(node.args[0])
            if hit is None:
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        hit = narrow_token(kw.value)
            if hit is not None:
                out.append(RawFinding(
                    "det/float-cycles", info.module, node.lineno,
                    f"{hit} narrowing in sim-core function "
                    f"{info.qual.split(':')[1]}: stats accumulate in exact "
                    "float64 (JSON round-trip contract)",
                    {"function": info.qual, "dtype": hit},
                ))
    return out


def _iter_targets(tree: ast.Module) -> Iterator[ast.AST]:
    """Every expression that is directly iterated by a loop."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter


def check_unsorted_iteration(ctx: Context) -> List[RawFinding]:
    out = []
    for name, mod in ctx.modules.items():
        scope = ctx.scopes[name]
        for it in _iter_targets(mod.tree):
            label = None
            if isinstance(it, ast.Set):
                label = "set literal"
            elif isinstance(it, ast.Call):
                func = it.func
                if isinstance(func, ast.Name) and func.id == "set":
                    label = "set()"
                elif isinstance(func, ast.Attribute):
                    root = _root_name(func)
                    if func.attr == "listdir" and root is not None and \
                            _module_of_root(root, scope) == "os":
                        label = "os.listdir()"
                    elif func.attr in ("iterdir", "glob", "rglob") and not (
                        root is not None
                        and _module_of_root(root, scope) == "glob"
                    ):
                        label = f".{func.attr}()"
                    elif func.attr == "glob" and root is not None and \
                            _module_of_root(root, scope) == "glob":
                        label = "glob.glob()"
                elif isinstance(func, ast.Name) and func.id in (
                    "listdir", "iglob"
                ):
                    label = f"{func.id}()"
            if label is not None:
                out.append(RawFinding(
                    "det/unsorted-iteration", name, it.lineno,
                    f"iterating {label} without sorted(): filesystem/set "
                    "order is nondeterministic",
                    {},
                ))
    return out


# ----------------------------------------------------------------------
# io/* — durable artifacts
# ----------------------------------------------------------------------

def _io_modules(ctx: Context) -> Set[str]:
    return ctx.zones.durable_modules | ctx.zones.emitter_modules


def check_bare_write(ctx: Context) -> List[RawFinding]:
    out = []
    for name in sorted(_io_modules(ctx)):
        mod = ctx.modules.get(name)
        if mod is None:
            continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged = None
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _mode_of_open(node, is_method=False)
                if mode is not None and any(c in mode for c in "wx+"):
                    flagged = f'open(..., "{mode}")'
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                mode = _mode_of_open(node, is_method=True)
                if mode is not None and any(c in mode for c in "wx+"):
                    flagged = f'.open("{mode}")'
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"
            ):
                flagged = f".{func.attr}()"
            if flagged is None:
                continue
            if _mentions_tmp(node):
                continue  # atomic_replace callback writing its temp file
            out.append(RawFinding(
                "io/bare-write", name, node.lineno,
                f"{flagged} bypasses atomic_replace: a crash mid-write "
                "leaves a torn durable file",
                {},
            ))
    return out


def check_digest_gap(ctx: Context) -> List[RawFinding]:
    out = []
    for name in sorted(ctx.zones.durable_modules):
        mod = ctx.modules.get(name)
        if mod is None:
            continue
        for info in ctx.functions.values():
            if info.module != name:
                continue
            calls_atomic = any(
                isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == "atomic_replace")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "atomic_replace")
                )
                for node in ast.walk(info.node)
            )
            if not calls_atomic or info.name == "atomic_replace":
                continue
            # BFS <= 3 hops looking for digest vocabulary.
            frontier = {info.qual}
            seen: Set[str] = set()
            mentions = False
            for _ in range(4):  # hop 0 (self) + 3
                nxt: Set[str] = set()
                for qual in frontier:
                    if qual in seen or qual not in ctx.functions:
                        continue
                    seen.add(qual)
                    fn = ctx.functions[qual]
                    if any(
                        "sha256" in t.lower() or "digest" in t.lower()
                        for t in fn.tokens
                    ):
                        mentions = True
                        break
                    nxt.update(fn.calls)
                if mentions:
                    break
                frontier = nxt
            if not mentions:
                out.append(RawFinding(
                    "io/digest-gap", name, info.lineno,
                    f"{info.name} writes a durable artifact via "
                    "atomic_replace but nothing within 3 calls computes a "
                    "sha256/digest for it",
                    {"function": info.qual},
                ))
    return out


def check_json_unsorted(ctx: Context) -> List[RawFinding]:
    out = []
    for name in sorted(_io_modules(ctx)):
        mod = ctx.modules.get(name)
        if mod is None:
            continue
        scope = ctx.scopes[name]
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_json_dump = False
            if isinstance(func, ast.Attribute) and func.attr in (
                "dump", "dumps"
            ):
                root = _root_name(func)
                if root is not None and _module_of_root(root, scope) == "json":
                    is_json_dump = True
            elif isinstance(func, ast.Name) and func.id in scope.from_imports:
                base, attr = scope.from_imports[func.id]
                if base == "json" and attr in ("dump", "dumps"):
                    is_json_dump = True
            if not is_json_dump:
                continue
            sorted_kw = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not sorted_kw:
                out.append(RawFinding(
                    "io/json-unsorted", name, node.lineno,
                    "json.dump(s) without sort_keys=True: durable JSON "
                    "must be canonically ordered for diffing and digests",
                    {},
                ))
    return out


# ----------------------------------------------------------------------
# mp/* — fork and shared-memory safety
# ----------------------------------------------------------------------

def check_fork_unsafe(ctx: Context) -> List[RawFinding]:
    out = []
    for module, call, expr in ctx.zones.submit_sites:
        scope = ctx.scopes[module]
        problem = None
        if isinstance(expr, ast.Lambda):
            problem = "lambda (unpicklable; dies in the worker)"
        elif isinstance(expr, ast.Attribute):
            root = _root_name(expr)
            if root is None or _module_of_root(root, scope) is None:
                problem = (
                    f"bound method {ast.unparse(expr)} (pickles the whole "
                    "instance into every worker)"
                )
        elif isinstance(expr, ast.Name):
            qual = resolve_callable(expr, scope, ctx.modules, ctx.functions)
            if qual is None:
                enclosing = _enclosing_function(ctx, module, call)
                if enclosing is not None and any(
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub.name == expr.id
                    and sub is not enclosing.node
                    for sub in ast.walk(enclosing.node)
                ):
                    problem = (
                        f"nested function {expr.id} (closures cannot be "
                        "pickled to a worker process)"
                    )
        if problem is not None:
            out.append(RawFinding(
                "mp/fork-unsafe", module, expr.lineno,
                f"pool submission of {problem}",
                {},
            ))
    return out


def check_global_mutation(ctx: Context) -> List[RawFinding]:
    out = []
    for qual in sorted(ctx.zones.worker - ctx.zones.initializers):
        info = ctx.functions[qual]
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                out.append(RawFinding(
                    "mp/global-mutation", info.module, node.lineno,
                    f"worker task {info.name} rebinds global(s) "
                    f"{', '.join(node.names)}: invisible to the parent and "
                    "order-dependent across workers",
                    {"function": qual},
                ))
    return out


def check_shm_leak(ctx: Context) -> List[RawFinding]:
    def calls_named(node: ast.AST, names) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                attr = sub.func.attr if isinstance(sub.func, ast.Attribute) \
                    else (sub.func.id if isinstance(sub.func, ast.Name) else None)
                if attr in names:
                    return True
        return False

    out = []
    for qual, info in sorted(ctx.functions.items()):
        if info.name == "publish_shm":
            continue  # the publisher itself
        if not calls_named(info.node, ("publish_shm",)):
            continue
        released = any(
            isinstance(node, ast.Try)
            and any(calls_named(f, ("release_shm",)) for f in node.finalbody)
            for node in ast.walk(info.node)
        )
        if not released:
            out.append(RawFinding(
                "mp/shm-leak", info.module, info.lineno,
                f"{info.name} publishes shared memory but has no "
                "release_shm in a finally: segments leak past process exit",
                {"function": qual},
            ))
    return out


# ----------------------------------------------------------------------
# api/* — environment knobs
# ----------------------------------------------------------------------

def check_env_knob(ctx: Context) -> List[RawFinding]:
    out = []
    for name, mod in ctx.modules.items():
        if name == ctx.knobs_module:
            continue
        scope = ctx.scopes[name]
        for node in ast.walk(mod.tree):
            hit = None
            if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "getenv"
            ):
                root = _root_name(node)
                if root is not None and _module_of_root(root, scope) == "os":
                    hit = f"os.{node.attr}"
            elif isinstance(node, ast.Name) and node.id in scope.from_imports:
                base, attr = scope.from_imports[node.id]
                if base == "os" and attr in ("environ", "getenv"):
                    hit = f"os.{attr}"
            if hit is not None:
                out.append(RawFinding(
                    "api/env-knob", name, node.lineno,
                    f"{hit} read outside the knob registry: declare the "
                    f"knob in {ctx.knobs_module} and use its accessors",
                    {},
                ))
    return out


def check_knob_undeclared(ctx: Context) -> List[RawFinding]:
    out = []
    for name, mod in ctx.modules.items():
        if name == ctx.knobs_module:
            continue
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _KNOB_RE.match(node.value)
                and node.value not in ctx.known_knobs
            ):
                out.append(RawFinding(
                    "api/knob-undeclared", name, node.lineno,
                    f"{node.value} is not declared in {ctx.knobs_module}: "
                    "undeclared knobs are undiscoverable and unlintable",
                    {"knob": node.value},
                ))
    return out


# ----------------------------------------------------------------------
# exc/* — error handling in resilience paths
# ----------------------------------------------------------------------

def check_silent_swallow(ctx: Context) -> List[RawFinding]:
    out = []
    for name in sorted(ctx.zones.durable_modules):
        mod = ctx.modules.get(name)
        if mod is None:
            continue
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler):
                broad = node.type is None or _is_exception_name(node.type) or (
                    isinstance(node.type, ast.Tuple)
                    and any(_is_exception_name(e) for e in node.type.elts)
                )
                silent = all(
                    isinstance(stmt, (ast.Pass, ast.Continue))
                    for stmt in node.body
                )
                if node.type is None or (broad and silent):
                    out.append(RawFinding(
                        "exc/silent-swallow", name, node.lineno,
                        "broad except silently drops the error in a "
                        "durable-io path: narrow it or record a reason",
                        {},
                    ))
            elif isinstance(node, ast.Call):
                attr = node.func.attr if isinstance(node.func, ast.Attribute) \
                    else (node.func.id if isinstance(node.func, ast.Name)
                          else None)
                if attr == "suppress" and any(
                    _is_exception_name(a) for a in node.args
                ):
                    out.append(RawFinding(
                        "exc/silent-swallow", name, node.lineno,
                        "suppress(Exception) in a durable-io path hides "
                        "corruption instead of quarantining it",
                        {},
                    ))
    return out


#: rule id -> checker, in report order.
CHECKERS = {
    "det/wall-clock": check_wall_clock,
    "det/unseeded-random": check_unseeded_random,
    "det/float-cycles": check_float_cycles,
    "det/unsorted-iteration": check_unsorted_iteration,
    "io/bare-write": check_bare_write,
    "io/digest-gap": check_digest_gap,
    "io/json-unsorted": check_json_unsorted,
    "mp/fork-unsafe": check_fork_unsafe,
    "mp/global-mutation": check_global_mutation,
    "mp/shm-leak": check_shm_leak,
    "api/env-knob": check_env_knob,
    "api/knob-undeclared": check_knob_undeclared,
    "exc/silent-swallow": check_silent_swallow,
}


def run_checks(ctx: Context) -> List[RawFinding]:
    out: List[RawFinding] = []
    for checker in CHECKERS.values():
        out.extend(checker(ctx))
    out.sort(key=lambda r: (r.module, r.lineno, r.rule))
    return out
