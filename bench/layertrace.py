"""Layer tracing for the benchmark, installed from outside the package.

Every public function of each layer module is replaced, in every module
of the package that binds it (including names imported by value, such as
`counting.complement` or `cli.fiber_class`), by a wrapper that records a
span around the call.  The public methods of `LREngine` and `GF` are
wrapped on their classes, and `covariants`' binding of the private
`counting._labeled_sum` is wrapped so that summation time lands in
`counting`.

Spans are aggregated in memory into a calling-context tree: one node per
distinct chain of wrapped calls, holding its call count, total time and
self time (total minus the time of its child spans).  The tree, together
with one span per benchmark case, is written out when the run ends.
Nothing in the package itself is edited.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("partitions", "lr", "counting", "covariants", "quiver", "ffield", "oracles", "cli")

# ffield groups, as the per-layer metrics name them
LINALG = frozenset(
    ("mat_identity", "mat_mul", "mat_vec", "mat_rref", "mat_rank", "mat_det", "mat_kernel",
     "echelon_complete", "mat_inv")
)


def _poly_group(name: str) -> bool:
    return name.startswith("poly_") or name == "distinct_degree_factorization"


class _Node:
    __slots__ = ("calls", "total_ns", "self_ns", "children")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.children = {}


class Tracer:
    """Wraps the package's layers and aggregates their spans."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # key -> (layer, qualified name)
        self.root = _Node()
        # each frame is [child_ns, node]; the bottom frame is the harness
        self._stack: list[list] = [[0, self.root]]
        self.case_spans: list[tuple[int, str, int, int]] = []
        self.engines: list = []
        self.counters = {
            "labelings": 0,
            "fiber_terms": 0,
            "points": 0,
            "trials": 0,
            "degenerate": 0,
            "basis_samples": 0,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"quivercount.{name}") for name in LAYERS}
        bindings = [importlib.import_module("quivercount"), *mods.values()]
        hooks = self._result_hooks(mods)
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(fn, layer, name, hooks.get((layer, name)))
                for other in bindings:
                    for bound, obj in list(vars(other).items()):
                        if obj is fn:
                            setattr(other, bound, wrapped)
        counting = mods["counting"]
        mods["covariants"]._labeled_sum = self._wrap(
            counting._labeled_sum, "counting", "_labeled_sum", None
        )
        self._wrap_methods(mods["lr"].LREngine, "lr", "LREngine")
        self._wrap_methods(mods["ffield"].GF, "ffield", "GF")
        engine_cls = mods["lr"].LREngine
        plain_init = engine_cls.__init__
        engines = self.engines

        def init(engine, *args, **kwargs):
            plain_init(engine, *args, **kwargs)
            engines.append(engine)

        engine_cls.__init__ = init

    def _wrap_methods(self, cls, layer: str, prefix: str) -> None:
        for name, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and (not name.startswith("_") or name == "__init__"):
                setattr(cls, name, self._wrap(fn, layer, f"{prefix}.{name}", None))

    def _result_hooks(self, mods):
        c = self.counters
        gaussian_binomial = mods["oracles"].gaussian_binomial

        def labelings(result, args, kwargs):
            c["labelings"] += result.n_labelings + result.m_labelings

        def fiber_terms(result, args, kwargs):
            c["fiber_terms"] += len(result.coeffs)

        def points(result, args, kwargs):
            Q, V, beta = args[:3]
            total = 1
            for x in range(Q.nvertices):
                total *= gaussian_binomial(V.dim[x], beta[x], V.field.q)
            c["points"] += total

        def sampled(result, args, kwargs):
            c["trials"] += result.trials
            c["degenerate"] += result.degenerate

        def basis(result, args, kwargs):
            c["basis_samples"] += result.samples_tried

        return {
            ("counting", "verify_counts"): labelings,
            ("counting", "fiber_class"): fiber_terms,
            ("oracles", "enumerate_subreps"): points,
            ("oracles", "list_subreps"): points,
            ("oracles", "sampled_subrep_count"): sampled,
            ("oracles", "verify_determinant_basis"): basis,
        }

    def _wrap(self, fn, layer: str, name: str, hook):
        key = len(self.names)
        self.names.append((layer, name))
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent[1].children.get(key)
            if node is None:
                node = parent[1].children[key] = _Node()
            frame = [0, node]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total_ns += dt
                node.self_ns += dt - frame[0]
                parent[0] += dt
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- harness side ---------------------------------------------------------

    def case_span(self, trace_id: int, label: str, start_ns: int, end_ns: int) -> None:
        self.case_spans.append((trace_id, label, start_ns, end_ns))

    @property
    def harness_child_ns(self) -> int:
        """Time the harness spent inside wrapped calls."""
        return self._stack[0][0]

    def flat(self) -> dict[int, list[int]]:
        """key -> [calls, self_ns, total_ns], summed over call paths."""
        out: dict[int, list[int]] = {}

        def walk(node: _Node) -> None:
            for key, child in node.children.items():
                acc = out.setdefault(key, [0, 0, 0])
                acc[0] += child.calls
                acc[1] += child.self_ns
                acc[2] += child.total_ns
                walk(child)

        walk(self.root)
        return out

    def tree(self) -> list[dict]:
        """The calling-context tree as a list of nodes with their paths."""
        rows = []

        def walk(node: _Node, path: tuple[str, ...]) -> None:
            for key, child in node.children.items():
                layer, name = self.names[key]
                p = path + (f"{layer}.{name}",)
                rows.append(
                    {
                        "path": "/".join(p),
                        "calls": child.calls,
                        "total_ns": child.total_ns,
                        "self_ns": child.self_ns,
                    }
                )
                walk(child, p)

        walk(self.root, ())
        return rows

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer counts and self times of one traced pass."""
        flat = self.flat()
        calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        by_name: dict[str, int] = {}
        gf = [0, 0]
        linalg = [0, 0]
        poly = [0, 0]
        field_setup_ns = 0
        for key, (n, s, total) in flat.items():
            layer, name = self.names[key]
            by_name[f"{layer}.{name}"] = n
            self_ns[layer] += s
            if name == "GF.__init__":
                field_setup_ns += total
                continue
            if name == "LREngine.__init__":
                continue
            calls[layer] += n
            if layer == "ffield":
                group = gf if name.startswith("GF.") else linalg if name in LINALG else (
                    poly if _poly_group(name) else None
                )
                if group is not None:
                    group[0] += n
                    group[1] += s

        def ncalls(name: str) -> int:
            return by_name.get(name, 0)

        lr_calls = sum(ncalls(f"lr.LREngine.{m}") for m in ("lr_coefficient", "expand", "tensor_multiplicity"))
        memo_entries = sum(
            len(e._lr_memo) + len(e._expand_memo) + len(e._tensor_memo) for e in self.engines
        )
        c = self.counters
        s = 1e-9
        return {
            "partitions.calls": calls["partitions"],
            "partitions.self_s": self_ns["partitions"] * s,
            "lr.lr_coefficient.calls": ncalls("lr.LREngine.lr_coefficient"),
            "lr.expand.calls": ncalls("lr.LREngine.expand"),
            "lr.tensor_multiplicity.calls": ncalls("lr.LREngine.tensor_multiplicity"),
            "lr.memo_hit_ratio": 1 - memo_entries / lr_calls if lr_calls else 0.0,
            "lr.self_s": self_ns["lr"] * s,
            "counting.calls": calls["counting"],
            "counting.labelings": c["labelings"],
            "counting.fiber_terms": c["fiber_terms"],
            "counting.self_s": self_ns["counting"] * s,
            "covariants.calls": calls["covariants"],
            "covariants.self_s": self_ns["covariants"] * s,
            "quiver.calls": calls["quiver"],
            "quiver.self_s": self_ns["quiver"] * s,
            "ffield.gf_ops": gf[0],
            "ffield.gf_self_s": gf[1] * s,
            "ffield.gf_ns_per_op": gf[1] / gf[0] if gf[0] else 0.0,
            "ffield.linalg_calls": linalg[0],
            "ffield.linalg_self_s": linalg[1] * s,
            "ffield.poly_calls": poly[0],
            "ffield.poly_self_s": poly[1] * s,
            "ffield.field_setup_s": field_setup_ns * s,
            "ffield.self_s": self_ns["ffield"] * s,
            "oracles.calls": calls["oracles"],
            "oracles.points": c["points"],
            "oracles.degenerate_ratio": c["degenerate"] / c["trials"] if c["trials"] else 0.0,
            "oracles.basis_samples": c["basis_samples"],
            "oracles.self_s": self_ns["oracles"] * s,
            "harness.self_s": (wall_ns - self.harness_child_ns) * s,
        }
