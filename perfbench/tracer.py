"""Span tracer that wraps fraudsig's public functions from outside the package.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
target in ``TARGETS`` with a wrapper that records a span (name, start, end,
parent span, run id) and, for a few targets, exact work counts taken from
the arguments.  A module-level function is replaced in every ``fraudsig``
module that holds it, so a caller that imported the name (``from .losses
import discriminator_loss``) sees the wrapper; a method is replaced on its
class.  A target that no longer exists is recorded in ``missing`` and its
metrics are reported absent, so refactors that delete or move a function
need no edit here.

Self time is a span's duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

_LAYER_METHODS = ("forward", "backward", "tangent", "second_backward")

# (module, qualified name) of every wrapped callable, grouped by layer.
TARGETS = (
    # ingest
    ("banksim", "load_transactions"),
    ("banksim", "group_customers"),
    ("banksim", "make_samples"),
    # encoder and feature cache
    ("features", "dataset_fingerprint"),
    ("features", "build_feature_store"),
    ("features", "encode_prefixes"),
    ("signatures", "segment_signature"),
    ("signatures", "chen_product"),
    ("signatures", "tensor_log"),
    ("signatures", "lyndon_project"),
    ("lyndon", "LyndonBasis.flat_indices"),
    ("lyndon", "LyndonBasis.counts_by_length"),
    # losses
    ("losses", "discriminator_loss"),
    ("losses", "gradient_penalty"),
    # networks
    ("nnet", "DiscriminatorNet.forward"),
    ("nnet", "DiscriminatorNet.backward"),
    ("nnet", "DiscriminatorNet.critic_input_gradient"),
    ("nnet", "DiscriminatorNet.penalty_param_grads"),
    ("nnet", "GeneratorNet.forward"),
    ("nnet", "GeneratorNet.backward"),
    *(("nnet", f"{cls}.{m}") for cls in ("Dense", "ResidualTanh", "TanhAct") for m in _LAYER_METHODS),
    *(("nnet", f"_EmbeddingBank.{m}") for m in ("forward", "backward", "second_backward")),
    ("nnet", "load_params"),
    # sampler
    ("sghmc", "adam_sghmc_step"),
    ("sghmc", "GlorotPrior.neg_log_grad"),
    # training loop, checkpoints, prediction
    ("training", "train"),
    ("training", "save_checkpoint"),
    ("training", "predict"),
    # metrics and reports
    *(("metrics", f) for f in (
        "pr_auc", "partial_pr_auc", "macro_f1", "cross_entropy",
        "uncertainty_auroc", "expected_cost_at_k",
    )),
    ("reports", "score_cell"),
    ("reports", "write_cell_reports"),
)

# Matmul FLOPs of one Dense call per row and (in * out), by method; bias adds
# and the param-grad switch of `backward` aside, these follow from nnet.Dense.
_DENSE_FLOP_FACTOR = {"forward": 2, "backward": 2, "tangent": 2, "second_backward": 8}


def replace_everywhere(original, wrapper) -> None:
    """Rebind every fraudsig module global that refers to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fraudsig" or mod_name.startswith("fraudsig."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _rows(args) -> int:
    """Rows of the first 2-D array argument (the batch of every traced call)."""
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
    return 0


def _dense_flops(method):
    factor = _DENSE_FLOP_FACTOR[method]

    def count(args, kwargs, result):
        layer = args[0]
        k = factor
        if method == "backward":
            need = args[4] if len(args) > 4 else kwargs.get("need_param_grads", True)
            k += 2 if need else 0
        return {"nnet.Dense.flop": k * _rows(args[2:]) * layer.in_dim * layer.out_dim}

    return count


_COUNTERS = {
    "features.encode_prefixes": lambda a, k, r: {"features.encode_prefixes.prefixes": r.shape[0]},
    "nnet.DiscriminatorNet.forward": lambda a, k, r: {"nnet.DiscriminatorNet.forward.rows": _rows(a)},
    "training.predict": lambda a, k, r: {"training.predict.member_rows": len(a[1]) * _rows(a)},
    **{f"nnet.Dense.{m}": _dense_flops(m) for m in _LAYER_METHODS},
}


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run_id, outermost)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            outermost = self._active[name] == 0
            self._stack.append(sid)
            self._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                # Tuples of scalars leave the garbage collector's tracked set,
                # so a long run does not slow down as spans accumulate.
                self.spans.append((sid, name, t0, t1, parent, self.run_id, outermost))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        for mod_name, qualname in TARGETS:
            name = f"{mod_name}.{qualname}"
            try:
                owner = importlib.import_module(f"fraudsig.{mod_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            count = _COUNTERS.get(name)
            if isinstance(original, functools.cached_property):
                # A memoised method: the wrapped getter runs once per instance.
                wrapper = functools.cached_property(self.wrap(name, original.func, count))
                wrapper.__set_name__(owner, attr)
            elif callable(original):
                wrapper = self.wrap(name, original, count)
            else:
                self.missing.append(name)
                continue
            if path:
                setattr(owner, attr, wrapper)
            else:
                replace_everywhere(original, wrapper)

    def run(self, name: str, fn, *args):
        """Call fn as the root span of a new run; returns fn's result."""
        self.run_id += 1
        self.counts = defaultdict(float)
        return self.wrap(name, fn)(*args)

    def summary(self) -> dict[str, float]:
        """Per-name inclusive seconds, self seconds and calls, plus the exact
        counts, for the latest run."""
        spans = [s for s in self.spans if s[5] == self.run_id]
        child = defaultdict(float)
        for _, _, t0, t1, parent, _, _ in spans:
            child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _, _, outermost in spans:
            if outermost:
                out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[sid]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,run,name,start,end\n")
            for sid, name, t0, t1, parent, run, _ in sorted(self.spans):
                fh.write(f"{sid},{parent},{run},{name},{t0:.9f},{t1:.9f}\n")
