"""Per-layer tracing from outside the program: wrappers around the public
functions of each qgalois module.

Two kinds of boundary:

* hot calls (QRat arithmetic, TensorElem operations, NCPoly products and
  normal forms) keep only a call counter and the layer's self time, i.e.
  the time inside the call minus the time of instrumented calls nested in it;
* coarse calls (axiom sweeps, nullspace, projector, ...) also record a span
  (name, start, end, parent) and their inclusive time, counted once for the
  outermost call when they nest.

A function imported elsewhere by name (``from .linalg import nullspace``) is
replaced in every qgalois module that holds it, so calls through either name
are seen.
"""

from __future__ import annotations

import sys
import time

perf = time.perf_counter

QRAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
TENSOR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "tensor_mul",
              "outer", "swap", "map_leg", "expand_leg", "contract_leg", "grouped",
              "multiply_legs", "to_poly")
NCPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__rmul__", "star")

# (module, attribute, metric whose inclusive time it adds to, call counter)
COARSE = (
    ("qgalois.ncalg", "Presentation.check_local_confluence", "ncalg.confluence_s", None),
    ("qgalois.structure", "verify_hopf_axioms", "structure.hopf_axioms_s", None),
    ("qgalois.comodule", "verify_coaction", "comodule.coaction_s", None),
    ("qgalois.comodule", "invariant_subspace", "comodule.coaction_s", None),
    ("qgalois.connection", "check_strong_connection", "connection.strong_s", None),
    ("qgalois.linalg", "nullspace", "linalg.nullspace_s", "linalg.nullspace_calls"),
    ("qgalois.cherngalois", "projector", "cherngalois.projector_s", None),
    ("qgalois.cherngalois", "mat_mul", "cherngalois.mat_mul_s", "cherngalois.mat_mul_calls"),
    ("qgalois.cherngalois", "verify_pullback_theorem", "cherngalois.pullback_s", None),
    ("qgalois.join", "join_membership", "join.membership_s", None),
    ("qgalois.join", "join_product", "join.product_s", None),
    ("qgalois.presfile", "parse_workspace", "presfile.parse_s", None),
    ("qgalois.cli", "main", "cli.main_s", None),
)

COUNTERS = ("scalars.ops", "ncalg.nf_calls", "ncalg.nf_words", "ncalg.poly_mul",
            "tensors.ops", "report.checks", "linalg.nullspace_calls",
            "linalg.nullspace_cells", "linalg.rowspace_inserts",
            "cherngalois.sigma_calls", "cherngalois.mat_mul_calls")
TIMES = ("scalars.self_s", "ncalg.self_s", "tensors.self_s", "ncalg.confluence_s",
         "structure.hopf_axioms_s", "comodule.coaction_s", "connection.strong_s",
         "linalg.nullspace_s", "cherngalois.projector_s", "cherngalois.mat_mul_s",
         "cherngalois.pullback_s", "join.membership_s", "join.product_s",
         "presfile.parse_s", "cli.main_s")


class Tracer:
    """Counters, layer times and spans of one worker process."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.times = dict.fromkeys(TIMES, 0.0)
        self.spans: list[tuple] = []
        self._frames: list[list] = []    # [time of nested instrumented calls]
        self._open_spans: list[int] = []
        self._depth: dict[str, int] = {}
        self._nf_words: set = set()
        self._in_extend = 0

    # -- boundaries -----------------------------------------------------------

    def _hot(self, fn, counter, self_key):
        counts, times, frames = self.counts, self.times, self._frames

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                frames.pop()
                times[self_key] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
        return wrapper

    def _coarse(self, fn, name, time_key, counter):
        counts, times, frames, depth = self.counts, self.times, self._frames, self._depth
        spans, open_spans = self.spans, self._open_spans

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            depth[time_key] = depth.get(time_key, 0) + 1
            frame = [0.0]
            frames.append(frame)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                open_spans.pop()
                frames.pop()
                if frames:
                    frames[-1][0] += t1 - t0
                spans[index] = (name, t0, t1, parent)
                depth[time_key] -= 1
                if depth[time_key] == 0:
                    times[time_key] += t1 - t0
        return wrapper

    def _count(self, fn, counter, size=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1 if size is None else size(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    @staticmethod
    def _replace(old, new):
        """Point every qgalois module attribute bound to `old` at `new`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qgalois" or name.startswith("qgalois.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)

    @staticmethod
    def _patch_method(cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, name, make(raw))

    def install(self):
        import qgalois.cli  # noqa: F401  (not imported by the package itself)
        from qgalois import cherngalois, linalg, ncalg, report, scalars, tensors

        for name in QRAT_OPS:
            self._patch_method(scalars.QRat, name,
                               lambda f: self._hot(f, "scalars.ops", "scalars.self_s"))
        for name in TENSOR_OPS:
            self._patch_method(tensors.TensorElem, name,
                               lambda f: self._hot(f, "tensors.ops", "tensors.self_s"))
        for name in NCPOLY_OPS:
            self._patch_method(ncalg.NCPoly, name,
                               lambda f: self._hot(f, None, "ncalg.self_s"))
        self._patch_method(ncalg.Presentation, "normalize_terms",
                           lambda f: self._hot(f, None, "ncalg.self_s"))
        self._patch_method(ncalg.NCPoly, "__mul__", self._poly_mul)
        self._patch_method(ncalg.Presentation, "normal_form_word", self._normal_form)

        for module, attr, time_key, counter in COARSE:
            mod = sys.modules[module]
            name = attr.rsplit(".", 1)[-1]
            if "." in attr:
                cls = getattr(mod, attr.split(".")[0])
                self._patch_method(cls, name,
                                   lambda f: self._coarse(f, attr, time_key, counter))
            else:
                old = getattr(mod, name)
                self._replace(old, self._coarse(old, f"{module[8:]}.{name}",
                                                time_key, counter))

        old = linalg.nullspace  # already the timed wrapper; add the cell count
        self._replace(old, self._count(
            old, "linalg.nullspace_cells",
            size=lambda columns, key_order: len(columns) * len(
                {k for col in columns for k in col})))
        self._patch_method(linalg.RowSpace, "insert",
                           lambda f: self._count(f, "linalg.rowspace_inserts"))
        old = cherngalois.sigma
        self._replace(old, self._count(old, "cherngalois.sigma_calls"))
        self._patch_method(report.Check, "__init__", self._check)
        self._patch_method(report.Report, "extend", self._extend)

    def _poly_mul(self, fn):
        from qgalois.ncalg import NCPoly
        hot = self._hot(fn, None, "ncalg.self_s")
        counts = self.counts

        def wrapper(a, b):
            if isinstance(b, NCPoly):
                counts["ncalg.poly_mul"] += 1
            return hot(a, b)
        return wrapper

    def _normal_form(self, fn):
        hot = self._hot(fn, "ncalg.nf_calls", "ncalg.self_s")
        seen = self._nf_words

        def wrapper(alg, w):
            seen.add((id(alg), w))
            return hot(alg, w)
        return wrapper

    def _check(self, fn):
        # copies made by Report.extend re-label a check; they certify nothing new
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self._in_extend:
                counts["report.checks"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _extend(self, fn):
        def wrapper(*args, **kwargs):
            self._in_extend += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_extend -= 1
        return wrapper

    # -- results ----------------------------------------------------------------

    def start_operation(self):
        """Forget what set-up did, except the set-up parse in presfile.parse_s."""
        parse = self.times["presfile.parse_s"]
        for key in self.counts:
            self.counts[key] = 0
        for key in self.times:
            self.times[key] = 0.0
        self.times["presfile.parse_s"] = parse
        self._nf_words.clear()

    def finish(self):
        """Layer metrics of the operation, and the spans of set-up and operation."""
        layers = dict(self.counts)
        layers["ncalg.nf_words"] = len(self._nf_words)
        layers.update(self.times)
        return layers, self.spans
