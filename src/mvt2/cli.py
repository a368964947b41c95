"""Command-line entry point.

Subcommands cover the model lifecycle: build random weights, fuse them for
deployment, verify the fusion numerically, count parameters and MACs, run
inference on raw tensors, benchmark with an energy model, and spot-check
gradients.  stdout carries machine-readable JSON only; diagnostics go to
stderr.

Exit codes:
    0  success / check passed
    1  a numeric check failed, a result is not finite, or the operation is
       invalid for the input
    2  usage error (bad flags or argument values)
    3  a file could not be read, written or parsed
    4  invalid weight file, including a tensor holding NaN or infinity
    5  invalid input tensor: wrong shape, or a NaN or infinite value
"""

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import autodiff as ad
from . import weights
from .bench import BenchConfig, PowerProvider, load_power_trace, run_bench
from .blocks import mdta_block_forward, rep_dw_block_forward, sdta_block_forward
from .fusion import verify_equivalence
from .model import (
    VARIANTS,
    build,
    count,
    deploy,
    forward,
    fusable_branches,
    init_mdta_block,
    init_rep_dw_block,
    init_sdta_block,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_BAD_WEIGHTS = 4
EXIT_BAD_SHAPE = 5

GRADCHECK_THRESHOLD = 1e-4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _load_model(path):
    try:
        return weights.load(path)
    except OSError as exc:
        raise CliError(EXIT_UNREADABLE, f"cannot read {path}: {exc.strerror}") from None
    except weights.WeightFileError as exc:
        raise CliError(EXIT_BAD_WEIGHTS, f"{path}: {exc}") from None


def cmd_build(args) -> int:
    model = build(VARIANTS[args.variant], seed=args.seed)
    weights.save(model, args.out)
    _emit(
        {
            "variant": args.variant,
            "seed": args.seed,
            "mode": model.mode,
            "params": count(model).total_params,
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_fuse(args) -> int:
    model = _load_model(args.in_path)
    if model.mode == "deploy":
        raise CliError(EXIT_CHECK_FAILED, f"{args.in_path} is already in deploy form")
    try:
        with np.errstate(all="ignore"):
            fused = deploy(model)
        weights.save(fused, args.out)
    except ValueError as exc:
        raise CliError(EXIT_CHECK_FAILED, str(exc)) from None
    _emit(
        {
            "in": args.in_path,
            "out": args.out,
            "mode": fused.mode,
            "params": count(fused).total_params,
        }
    )
    return EXIT_OK


def cmd_verify_fusion(args) -> int:
    if args.samples < 1:
        raise CliError(EXIT_USAGE, f"--samples must be at least 1, got {args.samples}")
    if not 0 <= args.tol < float("inf"):
        raise CliError(EXIT_USAGE, f"--tol must be finite and non-negative, got {args.tol}")
    model = _load_model(args.in_path)
    if model.mode == "deploy":
        raise CliError(EXIT_CHECK_FAILED, f"{args.in_path} holds fused weights; nothing to verify")
    blocks = []
    all_pass = True
    for name, spec in fusable_branches(model):
        with np.errstate(all="ignore"):
            result = verify_equivalence(spec, samples=args.samples, tol=args.tol)
        diff = result["max_abs_diff"]
        blocks.append(
            {
                "name": name,
                "max_abs_diff": diff if np.isfinite(diff) else None,
                "pass": bool(result["pass"]),
            }
        )
        all_pass = all_pass and result["pass"]
    _emit({"tol": args.tol, "samples": args.samples, "blocks": blocks, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_count(args) -> int:
    config = VARIANTS[args.variant]
    res = config.input_resolution if args.resolution is None else args.resolution
    try:
        config = dataclasses.replace(config, input_resolution=res, attention=args.attention)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"--resolution {res}: {exc}") from None
    report = count(config, mode=args.mode)
    _emit(
        {
            "variant": args.variant,
            "mode": args.mode,
            "attention": args.attention,
            "resolution": config.input_resolution,
            "entries": [dataclasses.asdict(e) for e in report.entries],
            "total_params": report.total_params,
            "total_macs": report.total_macs,
        }
    )
    return EXIT_OK


def _parse_shape(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(EXIT_USAGE, f"--shape must be N,C,H,W, got {text!r}")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_USAGE, f"--shape must be four integers, got {text!r}") from None
    if any(d < 1 for d in shape):
        raise CliError(EXIT_BAD_SHAPE, f"shape dimensions must be positive, got {shape}")
    return shape


def cmd_infer(args) -> int:
    if args.topk < 1:
        raise CliError(EXIT_USAGE, f"--topk must be at least 1, got {args.topk}")
    model = _load_model(args.model)
    shape = _parse_shape(args.shape)
    try:
        raw = np.fromfile(args.input, dtype="<f4")
    except OSError as exc:
        raise CliError(EXIT_UNREADABLE, f"cannot read {args.input}: {exc}") from None
    expected = math.prod(shape)
    if raw.size != expected:
        raise CliError(
            EXIT_BAD_SHAPE,
            f"{args.input} holds {raw.size} float32 values, shape {shape} needs {expected}",
        )
    x = raw.reshape(shape)
    try:
        with np.errstate(all="ignore"):
            scores = forward(model, x)
    except ValueError as exc:
        raise CliError(EXIT_BAD_SHAPE, str(exc)) from None
    if not np.isfinite(scores).all():
        raise CliError(EXIT_CHECK_FAILED, "the model computed a NaN or infinite logit")
    k = min(args.topk, scores.shape[1])
    results = []
    for row in scores:
        order = np.argsort(row)[::-1][:k]
        results.append([{"class": int(i), "logit": float(row[i])} for i in order])
    _emit({"shape": list(shape), "mode": model.mode, "topk": results})
    return EXIT_OK


def _parse_power(text: str) -> PowerProvider:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise CliError(EXIT_USAGE, f"--power must be constant:WATTS or trace:PATH, got {text!r}")
    if kind == "constant":
        try:
            return PowerProvider.constant(float(rest))
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"bad constant power: {exc}") from None
    if kind == "trace":
        try:
            return load_power_trace(rest)
        except OSError as exc:
            raise CliError(EXIT_UNREADABLE,
                           f"cannot read power trace {rest}: {exc.strerror}") from None
        except ValueError as exc:
            raise CliError(EXIT_UNREADABLE, str(exc)) from None
    raise CliError(EXIT_USAGE, f"unknown power kind {kind!r}")


def cmd_bench(args) -> int:
    model = _load_model(args.model)
    power = _parse_power(args.power)
    try:
        config = BenchConfig(
            batch_size=args.batch,
            warmup=args.warmup,
            iters=args.iters,
            duration_s=args.duration,
            acc_percent=args.acc,
            acc_source=args.acc_source,
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    # opened before the timed run, so an unwritable --out fails at once
    with (open(args.out, "w", encoding="utf-8") if args.out is not None
          else contextlib.nullcontext()) as fh:
        try:
            report = run_bench(model, config, power)
        except ValueError as exc:
            raise CliError(EXIT_CHECK_FAILED, str(exc)) from None
        text = report.to_json()
        if fh is not None:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag, value in (("--channels", args.channels), ("--hw", args.hw)):
        if value < 1:
            raise CliError(EXIT_USAGE, f"{flag} must be at least 1, got {value}")
    init, block_forward = {
        "repdw": (init_rep_dw_block, rep_dw_block_forward),
        "sdta": (init_sdta_block, sdta_block_forward),
        "mdta": (init_mdta_block, mdta_block_forward),
    }[args.block]
    rng = np.random.default_rng(0)
    try:
        block = init(rng, args.channels, 2, dtype=np.float64)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"cannot build {args.block} block: {exc}") from None
    x = rng.standard_normal((1, args.channels, args.hw, args.hw))
    loss_w = ad.Var(rng.standard_normal(x.shape))

    def f(v):
        return ad.vsum(ad.mul(block_forward(block, v), loss_w))

    try:
        error = ad.check_gradient(f, x, eps=args.eps)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    passed = error < GRADCHECK_THRESHOLD
    _emit(
        {
            "block": args.block,
            "channels": args.channels,
            "hw": args.hw,
            "eps": args.eps,
            "error": float(error),
            "threshold": GRADCHECK_THRESHOLD,
            "pass": passed,
        }
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvt2", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="create randomly initialized train-form weights")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fuse", help="fold a train-form file into deploy form")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("verify-fusion", help="check train/deploy equivalence per block")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_verify_fusion)

    p = sub.add_parser("count", help="analytic parameter and MAC totals")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--mode", choices=["train", "deploy"], default="deploy")
    p.add_argument("--attention", choices=["sdta", "mdta"], default="sdta")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("infer", help="run a weight file on raw float32 input")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="little-endian float32 NCHW binary")
    p.add_argument("--shape", required=True, help="N,C,H,W")
    p.add_argument("--topk", type=int, default=5)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="timed forward passes with an energy model")
    p.add_argument("--model", required=True)
    p.add_argument("--batch", type=int, default=1)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--iters", type=int, default=None)
    group.add_argument("--duration", type=float, default=None)
    p.add_argument("--power", required=True, help="constant:WATTS or trace:PATH")
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--acc", type=float, default=None, help="externally measured top-1 %%")
    p.add_argument("--acc-source", default="unspecified", help="where --acc came from")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of one block")
    p.add_argument("--block", choices=["repdw", "sdta", "mdta"], required=True)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--hw", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        _diag(f"error: {exc}")
        return exc.code
    except OSError as exc:
        _diag(f"error: {exc}")
        return EXIT_UNREADABLE
    except weights.WeightFileError as exc:
        _diag(f"error: {exc}")
        return EXIT_BAD_WEIGHTS


if __name__ == "__main__":
    sys.exit(main())
