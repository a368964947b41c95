"""Outside-in tracer: spans around the public functions of mvt2's layers.

The tracer replaces each traced function, in every mvt2 module that has
bound it by name, with a wrapper that records a span
``[name, start, end, parent, request_id, attrs]`` in memory.  No file
under ``src/`` changes.  Spans are written out when the run ends, and
per-layer metrics are computed from them afterwards.

Layers and the functions traced for each:

- ``tensor``: ``conv2d`` (split into dense3x3, dense1x1 and depthwise
  by the call's spec), ``gelu``, ``batchnorm_infer``; attention is
  ``matmul`` + ``softmax`` + ``sigmoid``; head is ``global_avg_pool`` +
  ``linear``.  Shape helpers (``as_nchw``, ``split_channels``,
  ``concat_channels``) are not traced and count as their caller's self time.
- ``fusion``: ``rep_branch_forward``, ``fold_bn``, ``fuse``,
  ``verify_equivalence``.
- ``blocks``: every block-level forward, reported together as ``glue``.
- ``model``: ``forward``, ``build``, ``deploy``.
- ``weights``: ``load``, ``save``.
- ``cli``: ``cmd_fuse``, ``cmd_verify_fusion``, ``cmd_infer``.

``autodiff`` and ``bench`` are on no path a user waits for and are not
traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

STAGES = ("stem", "stage1", "down12", "stage2", "down23", "stage3", "head")
CONV_KINDS = ("dense3x3", "dense1x1", "depthwise")
BLOCK_FORWARDS = (
    "ffn_forward", "rep_embed_forward", "rep_dw_block_forward", "sdta_forward",
    "sdta_block_forward", "mdta_forward", "mdta_block_forward",
)
# Traced forward time that the per-layer self times must account for.
COVERAGE_BOUND = 0.95
FORWARD_LAYERS = ("tensor.", "fusion.rep_branch_forward", "blocks.glue")

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request_id = None
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._stage_of: dict[int, str] = {}
        self._macs: dict = {}

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, describe=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.request_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span[NAME], span[ATTRS] = describe(args, result)
            return result
        return traced

    def start(self):
        """Wrap the traced functions wherever an mvt2 module binds them."""
        from mvt2 import blocks, cli, fusion, model, tensor, weights

        def conv(args, out):
            spec = args[1]
            kh, kw = spec.kernel_size
            kind = "depthwise" if spec.is_depthwise else f"dense{kh}x{kw}"
            return f"tensor.conv2d.{kind}", {"macs": out.size * spec.kernel.shape[1] * kh * kw}

        def gelu(args, out):
            return "tensor.gelu", {"bytes": 2 * out.nbytes}

        def block(args, out):
            return "blocks.glue", {"stage": self._stage_of.get(id(args[0]))}

        def on_forward(args):
            self._stage_of = stage_map(args[0])

        def forward(args, out):
            key = (args[0].config, args[0].mode)
            if key not in self._macs:
                self.enabled = False
                report = model.count(args[0])
                self.enabled = True
                self._macs[key] = {s: report.subtotal(s)[1] for s in STAGES}
            return "model.forward", {"batch": int(out.shape[0]), "stage_macs": self._macs[key]}

        targets = [
            (tensor, "conv2d", "tensor.conv2d", conv, None),
            (tensor, "gelu", "tensor.gelu", gelu, None),
            (tensor, "batchnorm_infer", "tensor.batchnorm_infer", None, None),
            (tensor, "matmul", "tensor.attention", None, None),
            (tensor, "softmax", "tensor.attention", None, None),
            (tensor, "sigmoid", "tensor.attention", None, None),
            (tensor, "global_avg_pool", "tensor.head", None, None),
            (tensor, "linear", "tensor.head", None, None),
            (fusion, "rep_branch_forward", "fusion.rep_branch_forward", None, None),
            (fusion, "fold_bn", "fusion.fold_bn", None, None),
            (fusion, "fuse", "fusion.fuse", None, None),
            (fusion, "verify_equivalence", "fusion.verify_equivalence", None, None),
            *[(blocks, f, "blocks.glue", block, None) for f in BLOCK_FORWARDS],
            (model, "forward", "model.forward", forward, on_forward),
            (model, "build", "model.build", None, None),
            (model, "deploy", "model.deploy", None, None),
            (weights, "load", "weights.load", None, None),
            (weights, "save", "weights.save", None, None),
            (cli, "cmd_fuse", "cli.fuse", None, None),
            (cli, "cmd_verify_fusion", "cli.verify_fusion", None, None),
            (cli, "cmd_infer", "cli.infer", None, None),
        ]
        modules = [m for k, m in sys.modules.items() if k == "mvt2" or k.startswith("mvt2.")]
        for mod, attr, name, describe, before in targets:
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, describe, before)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
        self.enabled = True

    def stop(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()
        self.enabled = False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "request_id": rid}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def stage_map(model) -> dict[int, str]:
    """Block object identity -> the cost model's top-level name."""
    out = {}
    for stage in ("stem", "stage1", "stage2", "stage3"):
        for blk in getattr(model, stage):
            out[id(blk)] = stage
    out[id(model.down12)] = "down12"
    out[id(model.down23)] = "down23"
    return out


# -- aggregation ---------------------------------------------------------

def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of the layers that occur in ``spans``.

    Times are milliseconds per request in which the layer occurs (a request
    is one forward call, weight-file load or CLI command); ``calls`` is
    calls per such request; rates are totals over totals.
    """
    selft = _self_times(spans)
    g = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0, "req": set(),
                             "macs": 0, "bytes": 0})
    for s, st in zip(spans, selft):
        a = g[s[NAME]]
        a["self"] += st
        a["incl"] += s[END] - s[START]
        a["calls"] += 1
        a["req"].add(s[REQUEST])
        if s[ATTRS]:
            a["macs"] += s[ATTRS].get("macs", 0)
            a["bytes"] += s[ATTRS].get("bytes", 0)

    def per_req(name, key="self"):
        return g[name][key] * 1e3 / len(g[name]["req"])

    m = {}
    for kind in CONV_KINDS:
        n = f"tensor.conv2d.{kind}"
        if n in g:
            m[f"{n}.self_ms"] = per_req(n)
            m[f"{n}.calls"] = g[n]["calls"] / len(g[n]["req"])
            m[f"{n}.gmac_s"] = g[n]["macs"] / g[n]["self"] / 1e9
    if "tensor.gelu" in g:
        m["tensor.gelu.self_ms"] = per_req("tensor.gelu")
        m["tensor.gelu.calls"] = g["tensor.gelu"]["calls"] / len(g["tensor.gelu"]["req"])
        m["tensor.gelu.gb_s"] = g["tensor.gelu"]["bytes"] / g["tensor.gelu"]["self"] / 1e9
    for n in ("tensor.batchnorm_infer", "fusion.fold_bn"):
        if n in g:
            m[f"{n}.calls"] = g[n]["calls"] / len(g[n]["req"])
    for n in ("tensor.batchnorm_infer", "tensor.attention", "tensor.head",
              "fusion.rep_branch_forward", "fusion.fold_bn", "fusion.fuse",
              "fusion.verify_equivalence", "blocks.glue", "weights.load", "weights.save"):
        if n in g:
            m[f"{n}.self_ms"] = per_req(n)
    for n in ("model.build", "model.deploy", "cli.fuse", "cli.verify_fusion", "cli.infer"):
        if n in g:
            m[f"{n}.ms"] = per_req(n, "incl")
    if "model.build" in g:
        m["model.build.calls"] = g["model.build"]["calls"] / len(g["model.build"]["req"])
    if "weights.load" in g:
        inside = sum(s[END] - s[START] for s in spans
                     if s[NAME] in ("model.build", "model.deploy")
                     and s[PARENT] is not None and spans[s[PARENT]][NAME] == "weights.load")
        m["weights.load.skeleton_share"] = inside / g["weights.load"]["incl"]
    m.update(_stage_metrics(spans))
    return m


def _forwards(spans):
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None and spans[s[PARENT]][NAME] == "model.forward":
            children[s[PARENT]].append(i)
    return [(i, children[i]) for i, s in enumerate(spans) if s[NAME] == "model.forward"]


def _stage_metrics(spans) -> dict:
    """Each direct child of a forward belongs to the stage of its block, or
    to the stage of the block before it (the stem's activations), or to the
    head (pooling and classifier)."""
    fwd = _forwards(spans)
    if not fwd:
        return {}
    secs = dict.fromkeys(STAGES, 0.0)
    macs = dict.fromkeys(STAGES, 0)
    for i, kids in fwd:
        attrs = spans[i][ATTRS]
        for s in STAGES:
            macs[s] += attrs["stage_macs"][s] * attrs["batch"]
        stage = "stem"
        for k in kids:
            c = spans[k]
            if c[NAME] == "tensor.head":
                stage = "head"
            elif c[ATTRS] and c[ATTRS].get("stage"):
                stage = c[ATTRS]["stage"]
            secs[stage] += c[END] - c[START]
    m = {}
    for s in STAGES:
        m[f"model.stage.{s}.ms"] = secs[s] * 1e3 / len(fwd)
        m[f"model.stage.{s}.gmac_s"] = macs[s] / secs[s] / 1e9 if secs[s] else 0.0
    return m


def forward_coverage(spans) -> dict:
    """Share of traced forward time covered by the self times of the layers
    reported per forward (tensor kernels, multi-branch convs, block glue).
    It must lie in [COVERAGE_BOUND, 1]: below means work the trace does not
    attribute, above means spans that overlap."""
    selft = _self_times(spans)
    owner = [None] * len(spans)  # the forward span each span runs under
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            owner[i] = owner[s[PARENT]] if owner[s[PARENT]] is not None else (
                s[PARENT] if spans[s[PARENT]][NAME] == "model.forward" else None)
    fwd = [i for i, s in enumerate(spans) if s[NAME] == "model.forward"]
    total = sum(spans[i][END] - spans[i][START] for i in fwd)
    if not total:
        return {"forwards": 0, "ok": True}
    covered = sum(st for i, st in enumerate(selft)
                  if owner[i] is not None and spans[i][NAME].startswith(FORWARD_LAYERS))
    share = covered / total
    return {"forwards": len(fwd), "bound": COVERAGE_BOUND, "covered_share": share,
            "ok": COVERAGE_BOUND <= share <= 1.0 + 1e-9}
