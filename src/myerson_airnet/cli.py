"""Command-line experiment harness.

Subcommands: ``train`` a learned auction, ``revenue-gap`` it against the
second-price baseline, ``simulate`` a collection episode, and ``eval``
mean revenue against the analytic optimum.  Every command honors
``--seed``; outputs carry no timestamps, so identical invocations write
byte-identical files.  Each revenue-gap case draws from its own
``(seed, case index)`` stream, and every command clears one profile per
:func:`clear_hard` call.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .auction import ValuationProfile, myerson_clear, spa_clear
from .checkpoint import load_params, save_params
from .config import SCHEMA, build_config
from .errors import (CheckpointShapeError, EpisodeExhaustedError, InputError,
                     TrainingDivergedError)
from .network import clear_hard, train
from .sim import (LearnedMechanism, SecondPriceMechanism, generate_world, run_episode,
                  write_episode_csv, write_episode_events)

# Seed-derivation tags so different outputs never share a substream.
_TAG_TRAIN_EVAL = 900001
_TAG_EVAL = 900002


def _add_override_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        key = SCHEMA[name]
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                            metavar="V", help=key.help)


def _overrides(args: argparse.Namespace, names) -> dict[str, str]:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


_NET_KEYS = ("n_bidders", "dist_lower", "dist_upper", "groups", "linear_units", "kappa",
             "learning_rate", "batch_size", "iterations", "convergence_tol", "seed",
             "cases", "out")
_WORLD_KEYS = ("n_devices", "area_width", "area_height", "image_rows", "image_cols",
               "pile_size", "battery", "uav_x", "uav_y", "max_rounds",
               "similarity_aggregate", "valuation_rule")


def _require_out(cfg, args) -> str:
    out = cfg.out
    if out is None:
        raise InputError("an output path is required: pass --out or set out= in the config")
    return out


def _mean_revenues(params, dist, n_bidders: int, samples: int, seed_list) -> tuple[float, float]:
    rng = np.random.default_rng(seed_list)
    values = dist.sample(rng, (samples, n_bidders))
    dla = np.fromiter((clear_hard(params, row).revenue for row in values), float, samples)
    spa = np.fromiter((spa_clear(row).revenue for row in values), float, samples)
    return float(dla.mean()), float(spa.mean())


def _cmd_train(args) -> int:
    cfg = build_config(args.config, _overrides(args, _NET_KEYS))
    out = _require_out(cfg, args)
    params, trace = train(cfg.net, cfg.distribution)
    save_params(params, out)

    trace_path = out + ".loss.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loss"])
        for iteration, value in enumerate(trace.losses):
            writer.writerow([iteration, repr(float(value))])

    dla_mean, spa_mean = _mean_revenues(params, cfg.distribution, cfg.net.n_bidders,
                                        10_000, [cfg.net.seed, _TAG_TRAIN_EVAL])
    print(f"trained {len(trace.losses)} iterations; final loss {trace.final_loss:.6f}")
    if trace.converged_at is not None:
        print(f"converged at iteration {trace.converged_at}")
    print(f"test revenue over 10000 fresh profiles: dla {dla_mean:.6f}, spa {spa_mean:.6f}")
    print(f"wrote checkpoint {out} and loss trace {trace_path}")
    return 0


def _gap_case(params, dist, seed: int, index: int) -> tuple[float, float]:
    rng = np.random.default_rng([seed, index])
    values = dist.sample(rng, params.n_bidders)
    return clear_hard(params, values).revenue, spa_clear(values).revenue


def _cmd_revenue_gap(args) -> int:
    cfg = build_config(args.config, _overrides(args, _NET_KEYS))
    out = _require_out(cfg, args)
    params = load_params(args.checkpoint, expect=cfg.net)

    pairs = [_gap_case(params, cfg.distribution, cfg.net.seed, i) for i in range(cfg.cases)]
    dla = np.array([pair[0] for pair in pairs])
    spa = np.array([pair[1] for pair in pairs])
    gaps = dla - spa
    order = np.argsort(gaps, kind="stable")

    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "gap", "dla_revenue", "spa_revenue"])
        for rank, idx in enumerate(order, start=1):
            writer.writerow([rank, repr(float(gaps[idx])), repr(float(dla[idx])),
                             repr(float(spa[idx]))])

    if args.svg:
        svg_path = str(Path(out).with_suffix(".svg")) if out.endswith(".csv") else out + ".svg"
        Path(svg_path).write_text(_gap_curve_svg(gaps[order]), encoding="utf-8")
        print(f"wrote gap curve {svg_path}")

    positive = float(np.mean(gaps > 0.0))
    print(f"cases: {cfg.cases}")
    print(f"mean dla revenue: {dla.mean():.6f}")
    print(f"mean spa revenue: {spa.mean():.6f}")
    print(f"mean gap: {gaps.mean():.6f}")
    print(f"positive gap fraction: {positive:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = build_config(args.config, _overrides(args, _NET_KEYS + _WORLD_KEYS))
    out = _require_out(cfg, args)
    if args.mechanism == "spa":
        mechanism = SecondPriceMechanism()
    else:
        if args.checkpoint is None:
            raise InputError("simulate --mechanism dla needs --checkpoint")
        params = load_params(args.checkpoint)
        if params.n_bidders != cfg.world.n_devices:
            raise CheckpointShapeError(
                f"checkpoint covers {params.n_bidders} bidders but the world has "
                f"{cfg.world.n_devices} devices")
        mechanism = LearnedMechanism(params)

    state = generate_world(cfg.world)
    records = run_episode(state, mechanism, cfg.world.max_rounds)

    write_episode_csv(out, records)
    if args.events:
        write_episode_events(args.events, records)
        print(f"wrote event stream {args.events}")

    revenue = sum(record.outcome.revenue for record in records)
    flown = sum(record.distance_flown for record in records)
    print(f"rounds completed: {len(records)}")
    print(f"total revenue: {revenue:.6f}")
    print(f"total distance flown: {flown:.3f} m")
    print(f"battery remaining: {state.battery:.3f} m")
    print(f"wrote {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = build_config(args.config, _overrides(args, _NET_KEYS))
    params = load_params(args.checkpoint)
    if params.n_bidders != cfg.net.n_bidders:
        raise CheckpointShapeError(
            f"checkpoint covers {params.n_bidders} bidders but the config expects "
            f"{cfg.net.n_bidders}")
    samples = args.samples
    if samples < 1:
        raise InputError("--samples must be at least 1")

    rng = np.random.default_rng([cfg.net.seed, _TAG_EVAL])
    values = cfg.distribution.sample(rng, (samples, cfg.net.n_bidders))
    revenue = {"dla": np.empty(samples), "spa": np.empty(samples), "myerson": np.empty(samples)}
    for row_index, row in enumerate(values):
        revenue["dla"][row_index] = clear_hard(params, row).revenue
        revenue["spa"][row_index] = spa_clear(row).revenue
        profile = ValuationProfile(row, cfg.distribution)
        revenue["myerson"][row_index] = myerson_clear(profile).revenue

    print(f"samples: {samples} (common random numbers)")
    print(f"{'mechanism':<10} {'mean_revenue':>14} {'stddev':>12}")
    for name in ("dla", "spa", "myerson"):
        series = revenue[name]
        print(f"{name:<10} {series.mean():>14.6f} {series.std():>12.6f}")
    return 0


def _gap_curve_svg(sorted_gaps: np.ndarray) -> str:
    """Self-contained SVG polyline of the ascending gap curve."""
    width, height, margin = 640, 400, 50
    n = sorted_gaps.size
    lo = float(min(sorted_gaps.min(), 0.0))
    hi = float(max(sorted_gaps.max(), 0.0))
    if hi == lo:
        hi = lo + 1.0

    def sx(i: float) -> float:
        return margin + (width - 2 * margin) * (i / max(n - 1, 1))

    def sy(v: float) -> float:
        return height - margin - (height - 2 * margin) * ((v - lo) / (hi - lo))

    points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(sorted_gaps))
    zero_y = sy(0.0)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{width - margin}" y2="{zero_y:.2f}" '
        f'stroke="#999" stroke-dasharray="4 4"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">case rank (sorted by gap)</text>\n'
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {height / 2:.0f})">revenue gap</text>\n'
        f'</svg>\n'
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myerson-airnet",
        description="Learned-auction experiments for aerial data collection.")
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train a learned auction and save a checkpoint")
    train_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    _add_override_flags(train_p, _NET_KEYS)
    train_p.set_defaults(func=_cmd_train)

    gap_p = sub.add_parser("revenue-gap",
                           help="compare a checkpoint against second-price on fresh cases")
    gap_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    gap_p.add_argument("--checkpoint", metavar="PATH", required=True)
    gap_p.add_argument("--svg", action="store_true", help="also write a gap-curve SVG")
    _add_override_flags(gap_p, _NET_KEYS)
    gap_p.set_defaults(func=_cmd_revenue_gap)

    sim_p = sub.add_parser("simulate", help="run one collection episode and log it")
    sim_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    sim_p.add_argument("--checkpoint", metavar="PATH")
    sim_p.add_argument("--mechanism", choices=("dla", "spa"), default="dla")
    sim_p.add_argument("--events", metavar="PATH", help="also write a JSONL event stream")
    _add_override_flags(sim_p, _NET_KEYS + _WORLD_KEYS)
    sim_p.set_defaults(func=_cmd_simulate)

    eval_p = sub.add_parser("eval",
                            help="mean revenue of dla, spa, and the analytic optimum")
    eval_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    eval_p.add_argument("--checkpoint", metavar="PATH", required=True)
    eval_p.add_argument("--samples", type=int, default=10_000)
    _add_override_flags(eval_p, _NET_KEYS)
    eval_p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, EpisodeExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
