"""Span recording around the calls into each momentlab module.

Every public function of a package module, and ``__call__`` of every public
class that defines one, is wrapped where callers look it up: in its home
module and in every module that imported it by name (``from .arith import
divisor_count_sieve`` binds a second name in ``moments``, ``lfunctions`` and
``expsums``).  A span is ``[name, layer, start, end, parent, info]``; spans
stay in memory and are summarised, and optionally written out, at the end.

The scalar helpers of ``arith`` (factorize, moebius, euler_phi, ...) are not
wrapped: they run up to a million times per run with microsecond bodies, so a
span each would cost more than the work.  Their time counts in the layer
that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("arith", "characters", "eigenforms", "special", "lfunctions",
          "moments", "expsums", "voronoi", "cli")

_UNWRAPPED = {"arith": {"factorize", "moebius", "euler_phi", "divisor_count",
                        "divisors", "phi_star", "is_admissible"}}

# Private names that per-layer counts need; each becomes a span of its layer.
_PRIVATE = {"voronoi": ("_composite_nodes", "_DualSpline.__init__")}

# metric -> the functions whose self time it sums.  A span of a function named
# by no metric adds its self time to the nearest enclosing span of the same
# layer (so the exact tau build inside delta_coefficients counts as table load).
OPS = {
    "arith.sieve_s": ("divisor_count_sieve",),
    "characters.build_group_s": ("build_group",),
    "eigenforms.table_load_s": ("delta_coefficients",),
    "eigenforms.exact_check_s": ("hecke_violations", "coprime_removal_exact_delta",
                                 "coprime_removal_exact_tau"),
    "special.window_s": ("BumpFunction.__call__", "BumpFunction.derivative"),
    "lfunctions.weight_build_s": ("triple_weight", "twist_weight"),
    "lfunctions.weight_eval_s": ("WeightFunction.__call__",),
    "lfunctions.afe_s": ("afe_triple_product",),
    "lfunctions.oracle_s": ("dirichlet_L_half", "twisted_L_half", "hurwitz_zeta"),
    "moments.residue_pair_s": ("residue_pair_matrix",),
    "moments.quadratic_form_s": ("brute_moment", "divisor_route_moment"),
    "moments.main_term_s": ("main_term", "c_ab"),
    "voronoi.hankel_s": ("hankel_grid",),
    "voronoi.dual_cutoff_s": ("dual_cutoff",),
    "voronoi.lhs_s": ("voronoi_lhs",),
    "voronoi.rhs_s": ("voronoi_rhs",),
    "expsums.weil_s": ("weil_certify",),
    "expsums.shifted_conv_s": ("shifted_conv_Aq",),
}
_OP_OF = {(metric.split(".")[0], fn): metric for metric, fns in OPS.items() for fn in fns}


def _info(name, args, result, before_misses, cache_info):
    """Sizes a span records for the per-layer counts."""
    info = {}
    if cache_info is not None:
        info["miss"] = cache_info().misses > before_misses
    if name == "divisor_count_sieve":
        info.update(limit=args[0], nbytes=int(result.nbytes))
    elif name == "build_group":
        info["chars"] = int(result.n_chars)
    elif name == "delta_coefficients":
        info["entries"] = len(result.lam)
    elif name == "BumpFunction.__call__":
        w = args[0]
        info["shape"] = (w.lo, w.p1, w.p2, w.hi)
    elif name == "WeightFunction.__call__":
        info["points"] = int(np.size(args[1]))
    elif name == "hankel_grid":
        info["ys"] = int(np.size(args[1]))
    elif name == "_composite_nodes":
        info["nodes"] = len(result[0])
    elif name == "voronoi_check":
        info["residual"] = float(result)
    elif name == "weil_certify":
        info["cells"] = int(result.cells)
    return info


class Tracer:
    """Wraps the package's public callables and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.t_start = self.t_end = 0.0

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info is not None else 0
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[5] = _info(name, args, result, misses, cache_info)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Patch every lookup site, then start the trace clock."""
        modules = {layer: importlib.import_module(f"momentlab.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            skip = _UNWRAPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if "__call__" in vars(obj):
                        self._patch(obj, "__call__", self._wrap(vars(obj)["__call__"], layer,
                                                                f"{name}.__call__"))
                elif callable(obj):
                    replace[id(obj)] = self._wrap(obj, layer, name)
            for dotted in _PRIVATE.get(layer, ()):
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    self._patch(owner, attr, self._wrap(vars(owner)[attr], layer, dotted))
                else:
                    fn = getattr(mod, attr)
                    replace[id(fn)] = self._wrap(fn, layer, attr)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patch(mod, name, replace[id(obj)])
        self.t_start = time.perf_counter()

    def _patch(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.t_end = time.perf_counter()
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def write(self, path) -> None:
        """Spans as JSON: times in seconds from the trace start."""
        t0 = self.t_start
        rows = [[s[0], s[1], s[2] - t0, s[3] - t0, s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"wall_s": self.t_end - t0, "fields": ["name", "layer", "start", "end", "parent"],
                       "spans": rows}, fh)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: self times, the named operations and the counts."""
        spans = self.spans
        wall = self.t_end - self.t_start
        self_s = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[4] >= 0:
                self_s[s[4]] -= s[3] - s[2]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({metric: 0.0 for metric in OPS})
        op: list[str | None] = []
        for i, s in enumerate(spans):
            parent = spans[s[4]] if s[4] >= 0 else None
            own = _OP_OF.get((s[1], s[0]))
            op.append(own or (op[s[4]] if parent is not None and parent[1] == s[1] else None))
            out[f"{s[1]}.self_s"] += self_s[i]
            if op[i]:
                out[op[i]] += self_s[i]
        out["other.self_s"] = wall - sum(s[3] - s[2] for s in spans if s[4] < 0)

        def named(name):  # calls that returned; a call that raised has no sizes
            return [(i, s) for i, s in enumerate(spans) if s[0] == name and s[5] is not None]

        sieves = [s for _, s in named("divisor_count_sieve")]
        built = [s for s in sieves if s[5]["miss"]]
        out["arith.sieve_builds"] = len(built)
        out["arith.sieve_entries"] = sum(s[5]["limit"] for s in built)
        # the arrays still held by the sieve's lru_cache: the most recent builds
        held = importlib.import_module("momentlab.arith").divisor_count_sieve.cache_info().currsize
        out["arith.sieve_cache_mb"] = sum(s[5]["nbytes"] for s in built[len(built) - held:]) / 2**20
        groups = [s for _, s in named("build_group") if s[5]["miss"]]
        out["characters.groups_built"] = len(groups)
        out["characters.chars_built"] = sum(s[5]["chars"] for s in groups)
        out["eigenforms.table_entries"] = sum(s[5]["entries"] for _, s in named("delta_coefficients"))
        windows = named("BumpFunction.__call__")
        first: dict[tuple, int] = {}
        for i, s in windows:
            first.setdefault(s[5]["shape"], i)
        out["special.window_calls"] = len(windows)
        out["special.window_shapes"] = len(first)
        out["special.window_first_eval_s"] = sum(self_s[i] for i in first.values())
        evals = named("WeightFunction.__call__")
        out["lfunctions.weight_eval_calls"] = len(evals)
        out["lfunctions.weight_eval_points"] = sum(s[5]["points"] for _, s in evals)
        out["moments.afe_length_sum"] = sum(
            s[5]["limit"] for s in sieves if s[4] >= 0 and spans[s[4]][0] == "residue_pair_matrix")
        nodes = {s[4]: s[5]["nodes"] for _, s in named("_composite_nodes")}
        out["voronoi.hankel_evals"] = sum(s[5]["ys"] * nodes.get(i, 0) for i, s in named("hankel_grid"))
        out["voronoi.spline_builds"] = len(named("_DualSpline.__init__"))
        out["voronoi.max_residual"] = max((s[5]["residual"] for _, s in named("voronoi_check")),
                                          default=0.0)
        out["expsums.weil_cells"] = sum(s[5]["cells"] for _, s in named("weil_certify"))
        out["expsums.shifted_conv_calls"] = len(named("shifted_conv_Aq"))
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(spans)
        return out
