"""Outside-in tracing of svcim: wrap public attributes, record spans, restore.

Nothing under ``src/`` knows about this module. ``Tracer.installed()``
replaces the module attributes through which svcim's own code calls each
layer (``svcim.link.spread``, ``svcim.detectors.mmp_df``, ...) with timing
wrappers, and puts the originals back when the block ends, also on error.

A span is ``(name, start_ns, end_ns, parent, frame)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``frame`` the id of the
``run_frame`` call it happened in (None outside frames, e.g. while building
a ``LinkContext``). Spans stay in memory until ``dump_spans``. A span's self
time is its duration minus the durations of its direct children.

Spans recorded inside pool workers never reach the parent, so traced sweeps
run on one worker.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import defaultdict

import numpy as np

import svcim.detectors
import svcim.harness
import svcim.link

# (layer, module, attribute) wrapped around every frame; the span name is
# "<layer>.<attribute>".
FRAME_TARGETS = (
    ("index_codec", svcim.link, "encode_bits"),
    ("index_codec", svcim.detectors, "combo_to_rank"),
    ("index_codec", svcim.detectors, "decode_to_bits"),
    ("index_codec", svcim.detectors, "int_to_bits"),
    ("transceiver", svcim.link, "build_sparse_vector"),
    ("transceiver", svcim.link, "spread"),
    ("transceiver", svcim.link, "ofdm_modulate"),
    ("transceiver", svcim.link, "ofdm_demodulate"),
    ("channel", svcim.link, "draw_channel"),
    ("channel", svcim.link, "apply_freq"),
    ("channel", svcim.link, "apply_time"),
    ("detectors", svcim.detectors, "cophase"),
    ("detectors", svcim.detectors, "sensing_matrix"),
    ("detectors", svcim.detectors, "esvc_decode"),
    ("detectors", svcim.detectors, "secbim_decode"),
    ("detectors", svcim.detectors, "ml_esvc"),
    ("detectors", svcim.detectors, "ml_secbim"),
    ("link", svcim.link, "transmit_frame"),
)
# Wrapped while a LinkContext is built.
SETUP_TARGETS = (
    ("codebook", svcim.link, "generate_set"),
    ("detectors", svcim.link, "build_ml_candidates"),
)

# Per-frame self time, in microseconds, summed over these spans.
FRAME_US = {
    "index_codec.encode_us": ("index_codec.encode_bits",),
    "index_codec.demap_us": ("index_codec.combo_to_rank", "index_codec.decode_to_bits",
                             "index_codec.int_to_bits"),
    "transceiver.spread_us": ("transceiver.build_sparse_vector", "transceiver.spread"),
    "transceiver.ofdm_us": ("transceiver.ofdm_modulate", "transceiver.ofdm_demodulate"),
    "channel.draw_us": ("channel.draw_channel",),
    "channel.apply_us": ("channel.apply_freq", "channel.apply_time"),
    "detectors.cophase_us": ("detectors.cophase",),
    "detectors.sensing_us": ("detectors.sensing_matrix",),
    "detectors.search_us": ("detectors.mmp_df",),
    "detectors.decide_us": ("detectors.esvc_decode", "detectors.secbim_decode"),
    "detectors.ml_us": ("detectors.ml_esvc", "detectors.ml_secbim"),
    "link.frame_self_us": ("link.run_frame", "link.transmit_frame"),
}
# Mean duration per call, in milliseconds, of spans outside frames.
SETUP_MS = {
    "codebook.generate_ms": "codebook.generate_set",
    "detectors.ml_build_ms": "detectors.build_ml_candidates",
    "link.context_ms": "link.LinkContext.for_config",
}
SWEEP_SPAN = "harness.run_ber_sweep"


class Tracer:
    """Span recorder plus the counters read from each layer's return values."""

    def __init__(self):
        self.spans: list = []
        self.frame: int | None = None
        self.outcomes: list = []  # per frame: (g, d, extended, g_hat, d_hat, l_hat, n_reused)
        self.searches: list = []  # per search: (y_hat, params, residual_norm, ls_solves)
        self._stack: list = []
        self._patches: list = []

    # --- installation -------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; always restore."""
        try:
            for layer, module, attr in SETUP_TARGETS:
                self._wrap(module, attr, self._span(f"{layer}.{attr}", getattr(module, attr)))
            for_config = vars(svcim.link.LinkContext)["for_config"]
            self._wrap(svcim.link.LinkContext, "for_config",
                       classmethod(self._span("link.LinkContext.for_config", for_config.__func__)))
            self._wrap(svcim.harness, "run_ber_sweep",
                       self._span(SWEEP_SPAN, svcim.harness.run_ber_sweep))
            for layer, module, attr in FRAME_TARGETS:
                self._wrap(module, attr, self._span(f"{layer}.{attr}", getattr(module, attr)))
            self._wrap(svcim.detectors, "mmp_df", self._search(svcim.detectors.mmp_df))
            self._wrap(svcim.harness, "run_frame", self._frame(svcim.harness.run_frame))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _wrap(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.frame)

        return traced

    def _frame(self, run_frame):
        traced = self._span("link.run_frame", run_frame)

        @functools.wraps(run_frame)
        def frame(cfg, rng, ctx=None):
            self.frame = len(self.outcomes)
            try:
                trace = traced(cfg, rng, ctx)
            finally:
                self.frame = None
            msg, det = trace.msg, trace.detection
            self.outcomes.append((msg.g, msg.d, msg.extended, det.g_hat, det.d_hat, det.l_hat,
                                  ctx.space.n_reused))
            return trace

        return frame

    def _search(self, mmp_df):
        traced = self._span("detectors.mmp_df", mmp_df)

        @functools.wraps(mmp_df)
        def search(y_hat, psi, params):
            est = traced(y_hat, psi, params)
            self.searches.append((y_hat, params, est.residual_norm, est.ls_solves))
            return est

        return search

    # --- analysis -----------------------------------------------------

    def self_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def metrics(self) -> dict:
        """Per-layer metrics of the sweep traced while installed."""
        self_ns = self.self_ns()
        frame_self = defaultdict(int)
        frame_count = defaultdict(int)
        setup_ns = defaultdict(list)
        for (name, start, end, _, frame), own in zip(self.spans, self_ns):
            if frame is None:
                setup_ns[name].append(end - start)
            else:
                frame_self[name] += own
                frame_count[name] += 1
        frames = frame_count["link.run_frame"]
        per_frame = max(frames, 1)
        out = {name: sum(frame_self[s] for s in spans) / per_frame / 1e3
               for name, spans in FRAME_US.items()}
        for name, span in SETUP_MS.items():
            out[name] = float(np.mean(setup_ns[span])) / 1e6 if setup_ns[span] else 0.0

        per_search = max(len(self.searches), 1)
        out["detectors.searches_per_frame"] = len(self.searches) / per_frame
        out["detectors.ls_solves_per_search"] = sum(s[3] for s in self.searches) / per_search
        stops = [_stop_reason(*s) for s in self.searches]
        for reason in ("threshold", "budget", "exhausted"):
            out[f"detectors.stop_{reason}_frac"] = stops.count(reason) / per_search

        hits = cb = pattern = flag = 0
        for g, d, extended, g_hat, d_hat, l_hat, n_reused in self.outcomes:
            hits += g_hat == g and d_hat == d
            cb += g_hat != g
            pattern += d_hat != d
            flag += d < n_reused and l_hat != (2 if extended else 1)
        n_out = max(len(self.outcomes), 1)
        out["link.support_hit_frac"] = hits / n_out
        out["link.err_codebook_frac"] = cb / n_out
        out["link.err_pattern_frac"] = pattern / n_out
        out["link.err_flag_frac"] = flag / n_out

        sweeps = [(end - start) for name, start, end, _, _ in self.spans if name == SWEEP_SPAN]
        frame_ns = sum(end - start for name, start, end, _, f in self.spans
                       if name == "link.run_frame")
        out["harness.self_us"] = (sum(sweeps) - frame_ns) / per_frame / 1e3 if frames else 0.0
        return out

    def dump_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "start_ns", "end_ns", "parent", "frame"))
            for name, start, end, parent, frame in self.spans:
                writer.writerow((name, start, end, parent, "" if frame is None else frame))


def _stop_reason(y_hat, params, residual_norm: float, ls_solves: int) -> str:
    """Why an MMP-DF search returned, judged from its inputs and result only.

    The search returns at once when a full-depth candidate's residual falls
    below lambda (times ||y_hat|| for a relative stop); the best residual is
    then below it too. Otherwise it stops after ``upsilon`` LS solves, or
    when the tree runs out first.
    """
    level = params.lam * (float(np.linalg.norm(y_hat)) if params.relative_stop else 1.0)
    if residual_norm < level:
        return "threshold"
    return "budget" if ls_solves >= params.upsilon else "exhausted"
