"""Spans and counts around calls into radonfourier, recorded from outside.

A ``Tracer`` replaces the attributes that callers resolve with timing
wrappers and puts the originals back on exit:

* a module function is replaced in every loaded ``radonfourier`` module that
  holds it, so ``xl.hnf_zp`` / ``quad.integrate_box`` (module attribute) and
  names bound by ``from .functions import pointwise_mul`` are both covered;
* a method is replaced on its class.

A span is (name, start, end, parent).  Spans stay in memory and are written
out once, at the end of the run.  Every target gets a span, the hot ones
(``exactlinalg.matmul``, the cyclotomic dunders) included: they fire tens of
thousands of times per pass, and the 200 k spans of a ``padic`` pass cost a
few percent of its wall time (``trace_overhead_ratio``), so no call site
needs to fall back to a bare counter.

No file of the package is modified; ``Tracer`` only sets attributes at run
time and restores them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs that get a span.  Methods are "Class.method".
SPANNED = [
    ("functions", "integrate"),
    ("functions", "pointwise_mul"),
    ("functions", "translate_group"),
    ("functions", "SBFunction.pullback_affine"),
    ("lattices", "Coset.intersect"),
    ("lattices", "Lattice.dual"),
    ("lattices", "Lattice.__init__"),
    ("exactlinalg", "hnf_zp"),
    ("exactlinalg", "smith_zp"),
    ("exactlinalg", "inv"),
    ("exactlinalg", "matmul"),
    ("transforms", "intertwine_I"),
    ("hilbert", "truncation_sequence"),
    ("hilbert", "decay_bound_check"),
    ("hilbert", "LFunction.__call__"),
    ("geometry", "fiber_param"),
    ("geometry", "flatten_linear"),
    ("geometry", "kak"),
    ("suite", "report_to_json"),
]

# The cyclotomic layer: the arithmetic dunders (counted as ``add`` / ``mul``)
# and the entry points that build or compare values.  ``cyclotomic.s`` is the
# union of these spans.
CYCLOTOMIC_SPANNED = [
    ("cyclotomic", "CyclotomicValue.__add__"),
    ("cyclotomic", "CyclotomicValue.__mul__"),
    ("cyclotomic", "CyclotomicValue.__eq__"),
    ("cyclotomic", "CyclotomicValue.root_of_unity"),
    ("cyclotomic", "ExactValue.__add__"),
    ("cyclotomic", "ExactValue.__mul__"),
    ("cyclotomic", "ExactValue.__eq__"),
]

QUADRATURE_RULES = ("integrate_polar_2d", "integrate_gauss_hermite", "integrate_box")
INTEGRAND = "quadrature.integrand"
PREIMAGE = "lattices.Coset.affine_preimage"
COMPOSE = "transforms.compose_shell_stabilized"
CHECK_NAMES = (
    "composition", "equivariance", "estimate", "fiber", "gamma-kernel",
    "rho-chain", "slice", "truncation", "unitarity",
)
LAYERS = (
    "quadrature", "functions", "lattices", "exactlinalg", "cyclotomic",
    "transforms", "hilbert", "geometry", "sampling", "suite", "integrand",
)


def span_name(module: str, attr: str) -> str:
    """``lattices.Lattice.__init__`` -> ``lattices.Lattice.init``."""
    parts = [p.strip("_") if p.startswith("__") else p for p in attr.split(".")]
    return ".".join([module, *parts])


def layer_of(name: str) -> str:
    return "integrand" if name == INTEGRAND else name.split(".", 1)[0]


def _quadrature_nodes(rule: str, args) -> int:
    """Nodes a rule evaluates, from its bound arguments."""
    import numpy as np

    if rule == "integrate_polar_2d":
        panels = max(len(args["r_breaks"]) - 1, 0)
        return panels * int(args["r_order"]) * int(args["theta_order"])
    if rule == "integrate_gauss_hermite":
        d = np.asarray(args["Q"]).shape[0]
    else:
        d = len(np.atleast_1d(args["lows"]))
    return int(args["order"]) ** d


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self._preimages_before: dict[int, int] = {}
        self._stack = [-1]
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.counts[name] += 1
        self._stack.append(i)
        return i

    def _spanned(self, name: str, fn, after=None):
        clock = time.perf_counter
        starts, ends, stack = self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(i, args, kwargs, out)
            return out

        return wrapper

    def _quadrature_rule(self, rule: str, fn):
        """A rule span with its node count; the integrand gets a child span."""
        name = f"quadrature.{rule}"
        sig = inspect.signature(fn)
        inner = self._spanned(name, fn)

        def integrand(user_fn):
            return self._spanned(INTEGRAND, user_fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["fn"] = integrand(bound.arguments["fn"])
            i = len(self.names)  # the span ``inner`` opens next
            out = inner(*bound.args, **bound.kwargs)
            self.attrs[i] = {"nodes": _quadrature_nodes(rule, bound.arguments)}
            return out

        return wrapper

    def _after_preimage(self, i, args, kwargs, out):
        if out is not None:
            self.counts[PREIMAGE + ".nonempty"] += 1

    def _compose(self, fn):
        def after(i, args, kwargs, out):
            _value, cert = out
            self.attrs[i] = {
                "shells": len(cert["shells"]),
                "stabilized": bool(cert["stabilized"]),
                "points": self.counts[PREIMAGE] - self._preimages_before.pop(i),
            }

        spanned = self._spanned(COMPOSE, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._preimages_before[len(self.names)] = self.counts[PREIMAGE]
            return spanned(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _replace(self, module: str, attr: str, make):
        mod = sys.modules[f"radonfourier.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, classmethod):
                wrapped = classmethod(make(orig.__func__))
            else:
                wrapped = make(orig)
            setattr(cls, meth, wrapped)
            self._restore.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        holders = [sys.modules["radonfourier"]] + [
            m for key, m in sys.modules.items() if key.startswith("radonfourier.")
        ]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, wrapped)
                    self._restore.append((holder, key, orig))

    def __enter__(self) -> "Tracer":
        import radonfourier  # noqa: F401 - loads every module that gets patched
        from radonfourier import sampling

        try:
            for module, attr in SPANNED + CYCLOTOMIC_SPANNED:
                name = span_name(module, attr)
                self._replace(module, attr, lambda f, n=name: self._spanned(n, f))
            for rule in QUADRATURE_RULES:
                self._replace("quadrature", rule, lambda f, r=rule: self._quadrature_rule(r, f))
            self._replace(
                "lattices", "Coset.affine_preimage",
                lambda f: self._spanned(PREIMAGE, f, self._after_preimage),
            )
            self._replace("transforms", "compose_shell_stabilized", self._compose)
            for attr, val in vars(sampling).items():
                if (
                    inspect.isfunction(val)
                    and val.__module__ == sampling.__name__
                    and not attr.startswith("_")
                ):
                    self._replace("sampling", attr, lambda f, n=f"sampling.{attr}": self._spanned(n, f))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)
        return False

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def outer_time(self, keep) -> float:
        """Length of the union of the spans whose name satisfies ``keep``.

        Spans of one thread nest or are disjoint, so the union is the sum
        over spans not inside another selected span.
        """
        total, end = 0.0, float("-inf")
        for i in sorted(
            (i for i, n in enumerate(self.names) if keep(n)), key=self.starts.__getitem__
        ):
            if self.starts[i] >= end:
                total += self.ends[i] - self.starts[i]
                end = self.ends[i]
        return total

    def metrics(self, traced_wall_s: float, untraced_wall_s: float, check_s: dict) -> dict:
        """Per-layer metrics of one traced pass, by the names in BENCHMARK.json.

        ``check_s`` maps a check name to its summed ``runtime_s`` from the
        reports of the traced pass.
        """
        selfs = self.self_times()
        by_name = defaultdict(list)
        for i, n in enumerate(self.names):
            by_name[n].append(i)
        self_by_name = defaultdict(float)
        self_by_layer = defaultdict(float)
        for i, n in enumerate(self.names):
            self_by_name[n] += selfs[i]
            self_by_layer[layer_of(n)] += selfs[i]

        out: dict[str, float] = {}

        def timed(name):
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.s"] = self.outer_time(lambda n: n == name)
            out[f"{name}.self_s"] = self_by_name[name]

        # quadrature
        integrand_by_rule = defaultdict(float)
        for i in by_name[INTEGRAND]:
            integrand_by_rule[self.names[self.parents[i]]] += self.ends[i] - self.starts[i]
        nodes_total = rule_s = rule_integrand_s = 0.0
        for rule in QUADRATURE_RULES:
            name = f"quadrature.{rule}"
            timed(name)
            nodes = sum(self.attrs[i]["nodes"] for i in by_name[name])
            out[f"{name}.nodes"] = nodes
            out[f"{name}.integrand_s"] = integrand_by_rule[name]
            nodes_total += nodes
            rule_s += out[f"{name}.s"]
            rule_integrand_s += integrand_by_rule[name]
        out["quadrature.nodes_per_s"] = (
            nodes_total / (rule_s - rule_integrand_s) if rule_s > rule_integrand_s else 0.0
        )
        lower_nodes = 0
        rule_names = {f"quadrature.{r}" for r in QUADRATURE_RULES}
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.names[i] in rule_names:
                children[p].append(self.attrs[i]["nodes"])
        for i in by_name["functions.integrate"]:
            if len(children[i]) >= 2:
                lower_nodes += min(children[i])
        out["quadrature.estimate_node_share"] = (
            lower_nodes / nodes_total if nodes_total else 0.0
        )

        for name in [span_name(m, a) for m, a in SPANNED] + [PREIMAGE, COMPOSE]:
            timed(name)
        calls = self.counts[PREIMAGE]
        out[f"{PREIMAGE}.nonempty_ratio"] = (
            self.counts[PREIMAGE + ".nonempty"] / calls if calls else 0.0
        )
        composes = [self.attrs[i] for i in by_name[COMPOSE]]
        out[f"{COMPOSE}.shells"] = sum(a["shells"] for a in composes)
        out[f"{COMPOSE}.points"] = sum(a["points"] for a in composes)
        out["transforms.compose.stabilized_ratio"] = (
            sum(a["stabilized"] for a in composes) / len(composes) if composes else 0.0
        )
        for cls in ("CyclotomicValue", "ExactValue"):
            for op in ("add", "mul"):
                out[f"cyclotomic.{cls}.{op}.calls"] = self.counts[f"cyclotomic.{cls}.{op}"]
        out["cyclotomic.s"] = self.outer_time(lambda n: layer_of(n) == "cyclotomic")
        out["sampling.calls"] = sum(
            c for n, c in self.counts.items() if layer_of(n) == "sampling"
        )
        out["sampling.s"] = self.outer_time(lambda n: layer_of(n) == "sampling")
        for check in CHECK_NAMES:
            out[f"suite.check.{check}.s"] = float(check_s.get(check, 0.0))

        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        accounted = sum(selfs)
        out["trace.wall_s"] = traced_wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.unaccounted_s"] = traced_wall_s - accounted
        out["trace.spans"] = len(self.names)
        out["trace_overhead_ratio"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
        return out

    def write_spans(self, path) -> None:
        """Spans as parallel columns: name index, start, end, parent."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        t0 = min(self.starts, default=0.0)
        doc = {
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [index[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    t = Tracer()
    return list(t.metrics(1.0, 1.0, {}).keys())


def unit_of(name: str) -> str:
    if name.endswith(("_ratio", "_share")) or name == "trace_overhead_ratio":
        return "ratio"
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def better_of(name: str) -> str:
    higher = ("nodes_per_s", "nonempty_ratio", "stabilized_ratio")
    return "higher" if name.endswith(higher) else "lower"
