"""Process-boundary safety for work shipped to the worker pool.

Everything submitted to :mod:`repro.pool` crosses a pickle boundary
into a long-lived worker process. The safe currency is plain data —
normalized config dicts, flattened structure arrays, content hashes —
because those are what the worker-side caches key and rebuild from.
Closures, lambdas and open OS handles either fail to pickle (at best)
or smuggle parent-process state that silently diverges from the
worker's (at worst: PR 6 found worker-side metrics vanishing at this
boundary). As the ROADMAP's multi-host fan-out replaces the pipe with a
network, the payload discipline only gets stricter.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    ERROR,
    FileContext,
    RawFinding,
    Rule,
    call_name,
    dotted_name,
    iter_functions,
    register,
)

#: Methods that ship their arguments across the process boundary.
_SHIP_METHODS = frozenset({"submit", "map", "submit_tile", "imap",
                           "imap_unordered", "apply_async"})

#: Flight-recorder emission entry points: everything passed here lands
#: verbatim inside JSON checkpoint/bundle documents.
_FLIGHT_METHODS = frozenset({"record", "record_span", "dump_incident"})

#: Constructors whose values json.dumps cannot encode (the bundle
#: writer falls back to repr(), which destroys the data for doctor).
_NON_JSON_CTORS = frozenset({"set", "frozenset", "bytes", "bytearray",
                             "complex", "object"})


def _is_thread_executor(expr: ast.expr) -> bool:
    """Whether an expression constructs a ``ThreadPoolExecutor``."""
    callee = call_name(expr) if isinstance(expr, ast.Call) else None
    return callee is not None and callee.split(".")[-1] == "ThreadPoolExecutor"


def _thread_executor_names(fn: ast.AST) -> set[str]:
    """Names bound in ``fn`` to a ``ThreadPoolExecutor(...)``, by
    assignment or by ``with ... as name``: submitting to a thread pickles
    nothing, so these receivers are not process pools."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_thread_executor(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            names.update(item.optional_vars.id for item in node.items
                         if isinstance(item.optional_vars, ast.Name)
                         and _is_thread_executor(item.context_expr))
    return names


def _is_pool_receiver(expr: ast.expr) -> bool:
    """Whether a call receiver looks like a worker pool."""
    name = dotted_name(expr)
    if name is not None:
        return "pool" in name.lower()
    if isinstance(expr, ast.Call):
        callee = call_name(expr)
        return callee is not None and "pool" in callee.lower()
    return False


@register
class ProcessBoundaryRule(Rule):
    """No closures, lambdas or open handles across the pool boundary."""

    id = "process-boundary"
    severity = ERROR
    description = ("arguments to pool submit/map must be plain picklable "
                   "data or module-level functions — no lambdas, closures, "
                   "generators or open file handles")
    history = ("PR 6: worker-side state silently diverged at the process "
               "boundary (metrics dropped); the pool contract is "
               "normalized configs + flattened tables only")

    def check(self, ctx: FileContext):
        for fn in iter_functions(ctx.tree):
            if isinstance(fn, ast.Lambda):
                continue
            nested = {
                n.name for n in ast.walk(fn)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n is not fn
            }
            lambda_names = {
                t.id
                for n in ast.walk(fn) if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Lambda)
                for t in n.targets if isinstance(t, ast.Name)
            }
            threads = _thread_executor_names(fn)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _SHIP_METHODS
                        and _is_pool_receiver(node.func.value)):
                    continue
                receiver = node.func.value
                if (isinstance(receiver, ast.Name) and receiver.id in threads) \
                        or _is_thread_executor(receiver):
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    if isinstance(arg, ast.Starred):
                        arg = arg.value
                    if isinstance(arg, ast.Lambda):
                        yield RawFinding(
                            node.lineno,
                            "lambda shipped across the process boundary; "
                            "workers need a module-level function",
                        )
                    elif isinstance(arg, ast.GeneratorExp):
                        yield RawFinding(
                            node.lineno,
                            "generator expression shipped to the pool; "
                            "generators are unpicklable — materialize a "
                            "list of plain items",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in nested:
                        yield RawFinding(
                            node.lineno,
                            f"closure {arg.id!r} (defined in the enclosing "
                            "function) shipped to the pool; move it to "
                            "module level so it pickles by reference",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in lambda_names:
                        yield RawFinding(
                            node.lineno,
                            f"{arg.id!r} is bound to a lambda and shipped "
                            "to the pool; workers need a module-level "
                            "function",
                        )
                    elif isinstance(arg, ast.Call) and call_name(arg) == "open":
                        yield RawFinding(
                            node.lineno,
                            "open file handle shipped to the pool; pass "
                            "the path and open in the worker",
                        )


def _is_flight_receiver(expr: ast.expr) -> bool:
    """Whether a call receiver is the flight recorder (module or
    instance — ``flight.record``, ``self._flight.dump_incident``)."""
    name = dotted_name(expr)
    return name is not None and "flight" in name.lower()


@register
class FlightSerializableRule(Rule):
    """Flight-event payloads must be JSON-serializable plain data."""

    id = "flight-serializable"
    severity = ERROR
    description = ("payloads passed to flight.record/record_span/"
                   "dump_incident must be JSON-serializable scalars and "
                   "containers — no lambdas, generators, sets, bytes or "
                   "open handles; they land verbatim in incident bundles")
    history = ("the bundle writer's repr() fallback quietly turns a "
               "non-JSON payload into an opaque string, so the doctor's "
               "heuristics (which read data fields like 'task' and "
               "'worker') stop matching exactly when forensics matter")

    def check(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FLIGHT_METHODS
                    and _is_flight_receiver(node.func.value)):
                continue
            payload = list(node.args) + [kw.value for kw in node.keywords]
            for arg in payload:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                if isinstance(arg, ast.Lambda):
                    yield RawFinding(
                        node.lineno,
                        "lambda in a flight-event payload; bundles are "
                        "JSON — record plain data (a name, a repr)",
                    )
                elif isinstance(arg, (ast.GeneratorExp, ast.SetComp)):
                    yield RawFinding(
                        node.lineno,
                        "generator/set comprehension in a flight-event "
                        "payload; JSON has no such value — materialize "
                        "a list",
                    )
                elif isinstance(arg, ast.Set):
                    yield RawFinding(
                        node.lineno,
                        "set literal in a flight-event payload; JSON has "
                        "no sets — use a sorted list",
                    )
                elif isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, bytes):
                    yield RawFinding(
                        node.lineno,
                        "bytes in a flight-event payload; JSON is text — "
                        "decode or hex-encode it",
                    )
                elif isinstance(arg, ast.Call) \
                        and call_name(arg) in _NON_JSON_CTORS:
                    yield RawFinding(
                        node.lineno,
                        f"{call_name(arg)}() value in a flight-event "
                        "payload is not JSON-serializable; convert to a "
                        "list/str first",
                    )
                elif isinstance(arg, ast.Call) and call_name(arg) == "open":
                    yield RawFinding(
                        node.lineno,
                        "open file handle in a flight-event payload; "
                        "record the path instead",
                    )
