"""Span tracing from outside the program, and the import-time breakdown.

`Tracer.install` replaces each traced function of `freep` with a wrapper in
every `freep` module namespace that binds it (several modules import the
engine functions by name), and `uninstall` puts the originals back. Spans
are kept in memory as (name, start, end, parent, tag) and summarised when
the run ends; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
from time import perf_counter

# (module, attribute path) of every traced function; the layer is the
# module's short name and the metric prefix is "<layer>.<attribute path>".
TRACED = (
    ("freep.cli", "main"),
    ("freep.reportio", "report_json"),
    ("freep.metric", "l1_space"),
    ("freep.metric", "lattice_l1_space"),
    ("freep.metric", "holder_distort"),
    ("freep.metric", "dyadic_grid"),
    ("freep.cubes", "find_cube"),
    ("freep.cubes", "lambda_support"),
    ("freep.cubes", "lambda_weight"),
    ("freep.freenorm", "exact_norm_small"),
    ("freep.freenorm", "exact_norm_p1"),
    ("freep.freenorm", "upper_bound_from"),
    ("freep.freenorm", "dual_lower_bound"),
    ("freep.freenorm", "DualCertificate.validate"),
    ("freep.retraction", "build_context"),
    ("freep.retraction", "retract"),
    ("freep.retraction", "lipschitz_upper_decomposition"),
    ("freep.retraction", "estimate_lipschitz"),
    ("freep.retraction", "lower_bound_witness"),
    ("freep.dyadic", "verify_norming"),
    ("freep.dyadic", "basis_norm_check"),
    ("freep.dyadic", "molecule_decompose"),
    ("freep.dyadic", "reconstruction_residual"),
    ("freep.dyadic", "synthesize"),
    ("freep.dyadic", "analyze"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


def _host_size(args, kwargs):
    return args[0].host.n


# Spans of these functions carry the host size of their element as a tag.
_TAGS = {"freenorm.exact_norm_small": _host_size}


class Tracer:
    """Records nested spans around the traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, tag = self.spans, self._stack, _TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items() if k == "freep" or k.startswith("freep.")]
        for module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[meth]
                targets = [(owner, meth)]
            else:
                original = getattr(owner, attr)
                targets = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            wrapper = self._wrap(span_name(module_name, attr), original)
            for obj, key in targets:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def summary(self, start: int = 0) -> dict:
        """Per-name call counts, self times, durations and host-size tags
        of the spans recorded from index `start` on."""
        spans = self.spans[start:]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child_time[parent - start] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent, tag) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [], "tags": []})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child_time[i]
            s["durations"].append(t1 - t0)
            s["tags"].append(tag)
        return out

    def children_named(self, start: int, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named parent_name with a direct child named child_name,
        all spans named parent_name), over spans from index `start` on."""
        with_child = {
            parent for name, _, _, parent, _ in self.spans[start:]
            if name == child_name and parent >= start and self.spans[parent][0] == parent_name
        }
        total = sum(1 for s in self.spans[start:] if s[0] == parent_name)
        return len(with_child), total


# ---------------------------------------------------------------------------
# import breakdown from `python -X importtime`

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
IMPORT_MODULES = {"freep": "freep_s", "scipy.optimize": "scipy_optimize_s",
                  "scipy.sparse": "scipy_sparse_s", "numpy": "numpy_s"}


def parse_importtime(text: str) -> tuple[dict[str, float], float]:
    """Cumulative seconds of the first import of each module, and the sum
    of the top-level cumulative times (the whole import work)."""
    first: dict[str, float] = {}
    top = 0.0
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)
        first.setdefault(name, cumulative)
        if indent <= 1:
            top += cumulative
    return first, top


def import_breakdown(env: dict, cwd: str, repeats: int = 3) -> dict[str, float]:
    """Median over `repeats` fresh interpreters of the import.* metrics; the
    freep total is taken minus an empty interpreter's own import work."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_MODULES.values()}
    for _ in range(repeats):
        runs = []
        for code in ("import freep", "pass"):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                                  env=env, cwd=cwd, capture_output=True, text=True, check=True)
            runs.append(parse_importtime(proc.stderr))
        (first, total), (_, baseline) = runs
        samples["freep_s"].append(total - baseline)
        for module, key in IMPORT_MODULES.items():
            if module != "freep":
                samples[key].append(first.get(module, 0.0))
    return {f"import.{k}": statistics.median(v) for k, v in samples.items()}
