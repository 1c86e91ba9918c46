"""Command-line entry point: data, train, generate, verify, bench, zeroshot.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 runtime abort.
Verification results are emitted as machine-readable lines
``CHECK <name> PASS|FAIL <metric>``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import checks, io
from .blocks import FIRST_BLOCK, NEXT_BLOCK, BlockPlan
from .model import REF_CAPACITY, DenoiserConfig, init_params
from .schedule import SamplerConfig
from .streaming import GenerationAborted, bench_overhead, generate_stream, zero_shot_experiment
from .synthdata import LatentDynamics, check_prop1, generate_state_path, make_dataset, render_and_encode, condition_vector
from .training import TrainConfig, TrainingDiverged, train_stage1, train_stage2_convkv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors echo a long value clipped, as the file readers' errors do;
    its subparsers are made of this class too."""

    def error(self, message):
        super().error(io._clipped(message, 200))


def _echo_config(out_dir: Path, args: argparse.Namespace, keys: list[str]) -> None:
    resolved = {k: str(getattr(args, k)) for k in keys}
    (out_dir / "config.txt").write_text(io.dump_config_text(resolved), encoding="utf-8")


@contextmanager
def _output_dir(path: str):
    """`path` as a directory for a command's output, made before the work so a bad path fails at once.

    If the command fails, what it made of the path is removed again; a
    directory that existed before is left as it was.
    """
    out = Path(path)
    made = next((p for p in reversed((out, *out.parents)) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _at_least(low: int):
    """An argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _reference_inputs(dyn: LatentDynamics, seed: int, n_frames: int):
    """Deterministic (x_ref, cond) derived from one synthetic trajectory of at least REF_CAPACITY frames."""
    u = generate_state_path(max(n_frames, REF_CAPACITY), dyn.delta_u, seed=seed, state_dim=dyn.state_dim)
    _, z0 = render_and_encode(dyn, u, dyn.residual_bound, seed=seed + 500_000)
    return z0[:REF_CAPACITY], condition_vector(z0)


# -- data ----------------------------------------------------------------------

def cmd_data(args) -> int:
    dyn = LatentDynamics.create(
        seed=args.seed, delta_u=args.delta_u, residual_bound=args.residual_bound
    )
    with _output_dir(args.out) as out:
        dataset = make_dataset(dyn, args.sequences, args.frames, seed=args.seed)
        io.save_dataset(out, dataset, seed=args.seed)
        _echo_config(out, args, ["seed", "sequences", "frames", "delta_u", "residual_bound"])
    report = [
        check_prop1(dyn, dataset.sequences[i], None) for i in range(args.sequences)
    ]
    worst = max((r.tightness for r in report), default=0.0)
    print(f"wrote {args.sequences} sequences of {args.frames} frames to {out}")
    print(f"neighbor bound {dyn.neighbor_bound:.6f}, worst tightness {worst:.4f}")
    return EXIT_OK


# -- train ---------------------------------------------------------------------

def cmd_train(args) -> int:
    if args.stage == 2 and args.init is None:
        print("error: --stage 2 requires --init <stage1 checkpoint>", file=sys.stderr)
        return EXIT_USAGE
    dataset, _ = io.load_dataset(args.data)
    n_frames = dataset.sequences.shape[1]
    if args.blocks:
        plan = BlockPlan.default(args.blocks)
        if plan.total_chunks != n_frames:
            raise ValueError(f"--blocks {args.blocks} makes {plan.total_chunks} chunks, "
                             f"but the dataset has {n_frames} frames")
    else:
        sizes, remaining = [FIRST_BLOCK], n_frames - FIRST_BLOCK
        while remaining > 0:
            sizes.append(min(NEXT_BLOCK, remaining))
            remaining -= NEXT_BLOCK
        plan = BlockPlan(tuple(sizes))
    tc = TrainConfig(
        total_steps=args.steps,
        plan=plan,
        learning_rate=args.lr,
        batch_size=args.batch,
        seed=args.seed,
        mask_mode=args.mask,
    )
    if args.init is not None:
        init = io.load_checkpoint(args.init)
    else:
        config = DenoiserConfig(d_latent=dataset.sequences.shape[2],
                                d_cond=2 * dataset.sequences.shape[2])
        init = init_params(config, seed=args.seed)
    if dataset.sequences.shape[0] == 0:  # refused before --out is made
        raise ValueError(f"{args.data} holds no sequences")
    with _output_dir(args.out) as out:
        train = train_stage1 if args.stage == 1 else train_stage2_convkv
        params, history = train(tc, dataset, init)
        io.save_checkpoint(out / "model.ckpt", params)
        with open(out / "loss.csv", "w", encoding="utf-8") as fh:
            fh.write("step,loss,t_mean\n")
            for step, loss, t_mean in history:
                fh.write(f"{step},{loss!r},{t_mean!r}\n")
        _echo_config(out, args, ["data", "stage", "steps", "seed", "batch", "lr", "mask"])
    if not history:
        print(f"stage {args.stage} done: 0 steps")
        return EXIT_OK
    final = history[-1][1]
    print(f"stage {args.stage} done: {len(history)} steps, final loss {final:.6f}")
    return EXIT_OK if np.isfinite(final) else EXIT_ABORTED


# -- generate --------------------------------------------------------------------

def cmd_generate(args) -> int:
    params = io.load_checkpoint(args.ckpt)
    plan = BlockPlan.default(args.blocks)
    sampler = SamplerConfig.uniform(args.steps)
    dyn = LatentDynamics.create(seed=args.seed,
                                latent_dim=params.config.d_latent)
    x_ref, cond = _reference_inputs(dyn, args.seed, plan.total_chunks)
    dtype = np.float32 if args.dtype == "f32" else np.float64
    params = params.astype(dtype)  # generation runs in the dtype of its weights
    with _output_dir(args.out) as out:
        seq, report = generate_stream(params, x_ref, cond, plan, sampler,
                                      use_convkv=(args.convkv == "on"), seed=args.seed)
        io.write_latents(out / "latents.bin", seq.values.astype(dtype))
        with open(out / "report.csv", "w", encoding="utf-8") as fh:
            fh.write("block,seconds,context_chunks,context_floats,roll_seconds\n")
            for b in range(plan.n_blocks):
                fh.write(f"{b},{report.block_times[b]!r},{report.context_chunks[b]},"
                         f"{report.context_floats[b]},{report.roll_times[b]!r}\n")
        _echo_config(out, args, ["ckpt", "blocks", "steps", "convkv", "seed", "dtype"])
    print("context chunks per block:", report.context_chunks)
    print(report.summary())
    return EXIT_OK


# -- verify ----------------------------------------------------------------------

_VERIFY_CHECKS = {
    "prop1": checks.prop1_bound,
    "prop2": checks.prop2_closed_form,
    "grad": checks.gradient_integrity,
    "mask": checks.mask_correctness,
    "cache-equivalence": checks.cache_equivalence,
    "memory-bound": checks.constant_memory,
    "ledger": checks.coverage_ledger,
}


def cmd_verify(args) -> int:
    names = list(_VERIFY_CHECKS) if args.check == "all" else [args.check]
    all_ok = True
    for name in names:
        ok, metric = _VERIFY_CHECKS[name](seed=args.seed)
        print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {metric}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- bench -----------------------------------------------------------------------

def cmd_bench(args) -> int:
    params = io.load_checkpoint(args.ckpt)
    plan = BlockPlan.default(args.blocks)
    sampler = SamplerConfig.uniform(args.steps)
    dyn = LatentDynamics.create(seed=args.seed, latent_dim=params.config.d_latent)
    x_ref, cond = _reference_inputs(dyn, args.seed, plan.total_chunks)
    with _output_dir(args.out) as out:
        result = bench_overhead(params, x_ref, cond, plan, sampler,
                                repetitions=args.reps, seed=args.seed)
        with open(out / "bench.csv", "w", encoding="utf-8") as fh:
            fh.write("block,mode,median_seconds\n")
            for b in range(plan.n_blocks):
                fh.write(f"{b},convkv,{result['per_block_with'][b]!r}\n")
                fh.write(f"{b},no-compression-ops,{result['per_block_without'][b]!r}\n")
                fh.write(f"{b},unbounded,{result['per_block_unbounded'][b]!r}\n")
    print(f"compression overhead fraction: {result['overhead_fraction']:.4f}")
    print(f"conv roll cost over subsample: {result['roll_overhead'] * 1e6:.1f}us per block")
    print(f"bounded last-block latency:   {result['bounded_last_block']:.4f}s")
    print(f"unbounded last-block latency: {result['unbounded_last_block']:.4f}s")
    return EXIT_OK


# -- zeroshot --------------------------------------------------------------------

def cmd_zeroshot(args) -> int:
    params = io.load_checkpoint(args.ckpt)
    if params.meta.get("mask_mode") != "none":
        print("error: zero-shot experiment requires a checkpoint trained with --mask none",
              file=sys.stderr)
        return EXIT_USAGE
    plan = BlockPlan.default(args.blocks)
    sampler = SamplerConfig.uniform(args.steps)
    dyn = LatentDynamics.create(seed=args.seed, latent_dim=params.config.d_latent)
    per_variant: dict[str, list[float]] = {}
    for s in range(args.seeds):
        x_ref, cond = _reference_inputs(dyn, args.seed + s, plan.total_chunks)
        scores = zero_shot_experiment(params, x_ref, cond, plan, sampler, seed=args.seed + s)
        for k, v in scores.items():
            per_variant.setdefault(k, []).append(v)
    print("variant,median_discontinuity")
    for k, vals in per_variant.items():
        print(f"{k},{np.median(vals):.4f}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nfar",
        description="Step-consistent block-autoregressive latent generation with bounded KV memory.",
    )
    parser.add_argument("--config", help="key = value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("data", help="generate a synthetic latent dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequences", type=_at_least(1), default=8)
    p.add_argument("--frames", type=int, default=22)
    p.add_argument("--delta-u", dest="delta_u", type=float, default=0.1)
    p.add_argument("--residual-bound", dest="residual_bound", type=float, default=0.01)
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("train", help="train stage 1 (denoiser) or stage 2 (compressor)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", type=int, choices=(1, 2), default=1)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--blocks", type=int, default=0, help="0 = infer plan from frames")
    p.add_argument("--mask", choices=("causal", "none"), default="causal")
    p.add_argument("--init", help="checkpoint to start from (required for stage 2)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="stream blocks from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--convkv", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f64", "f32"), default="f64")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run invariant checks")
    p.add_argument("check", choices=tuple(_VERIFY_CHECKS) + ("all",))
    p.add_argument("--seed", type=int, default=0, help="0 = the acceptance tests' inputs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="compression-overhead benchmark")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--blocks", type=_at_least(4), default=50, help="at least 4: blocks 4 on are timed")
    p.add_argument("--reps", type=_at_least(1), default=5)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("zeroshot", help="zero-shot chaining of a bidirectional model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seeds", type=_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_zeroshot)
    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """`argv` with the `--config` file's `key = value` lines as `--flag=value` options of the subcommand.

    They go right after the subcommand, before the parse, so they pass the
    same checks as flags, can supply a required flag, and lose to an
    explicit flag, which comes later.
    """
    top = _Parser(prog=parser.prog, add_help=False)
    top.add_argument("--config")
    top.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand and everything after it
    known, _ = top.parse_known_args(argv)
    sub_action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if known.config is None or not known.rest or known.rest[0] not in sub_action.choices:
        return argv  # nothing to insert; the real parse reports any error
    flags = {a.dest: a.option_strings[-1] for a in sub_action.choices[known.rest[0]]._actions
             if a.option_strings and a.dest != "help"}
    given = io.parse_config_text(Path(known.config).read_text(encoding="utf-8"), dict.fromkeys(flags, None))
    at = len(argv) - len(known.rest) + 1
    return argv[:at] + [f"{flags[key]}={value}" for key, value in given.items() if value is not None] + argv[at:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except (io.FormatError, OSError, ValueError) as err:  # OSError: a path missing or of the wrong kind
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GenerationAborted, TrainingDiverged, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ABORTED
    except MemoryError:  # e.g. --frames or --blocks too large to hold
        print("error: out of memory", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
