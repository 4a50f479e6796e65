"""Acceptance gate: the eight shipping checks, one printed verdict each.

Every check states its tolerance and wall-clock budget inline and prints
``ACCEPTANCE <n> (<label>): PASS|FAIL`` so a log scan shows the whole
gate at a glance.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from oracles import pair_mse

from myerson_airnet.auction import (ValuationDistribution, ValuationProfile, myerson_batch,
                                    myerson_clear, spa_batch)
from myerson_airnet.checkpoint import load_params
from myerson_airnet.cli import main
from myerson_airnet.network import (MonotoneNetParams, NetConfig, clear_batch, clear_hard, grad,
                                    train, transform, transform_inverse)
from myerson_airnet.sim import SecondPriceMechanism, WorldConfig, generate_world, run_episode
from myerson_airnet.valuation import distance, pile_similarity, valuation_score


def report(number, label, failures):
    verdict = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({label}): {verdict}")
    assert not failures, f"check {number}: " + "; ".join(failures)


def test_acceptance_1_learned_form_replays_analytic_optimum(u01):
    """Slope-2, offset -1 single-piece net must clear exactly like the
    closed-form optimal auction on uniform [0, 1]: same winners on 10k
    profiles, payments within 1e-9, in under 10 seconds."""
    start = time.perf_counter()
    params = MonotoneNetParams.affine(5, 2.0, -1.0)
    rng = np.random.default_rng(42)
    profiles = u01.sample(rng, (10_000, 5))

    winner_mismatch = 0
    worst_payment = 0.0
    for row in profiles:
        hard = clear_hard(params, row)
        analytic = myerson_clear(ValuationProfile(row, u01))
        if hard.winner != analytic.winner:
            winner_mismatch += 1
        worst_payment = max(worst_payment, abs(hard.payment - analytic.payment))
    elapsed = time.perf_counter() - start

    failures = []
    if winner_mismatch:
        failures.append(f"{winner_mismatch} winner mismatches")
    if worst_payment > 1e-9:
        failures.append(f"worst payment error {worst_payment:.3e}")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    report(1, "single-piece net replays the analytic optimum", failures)


def test_acceptance_2_gradients_match_finite_differences(fd_grad, nontie_sampler):
    """Hand gradients vs central differences at 50 points sampled away
    from ties: relative error below 1e-4, in under 30 seconds."""
    start = time.perf_counter()
    shapes = [(2, 1, 1), (3, 2, 2), (5, 5, 3), (2, 3, 1), (4, 1, 4)]
    rng = np.random.default_rng(1301)
    worst = 0.0
    for point in range(50):
        kappa = float(rng.uniform(2.0, 8.0))
        params, values = nontie_sampler(rng, shapes[point % len(shapes)], kappa)
        dtheta, dbeta = grad(params, values, kappa)
        ftheta, fbeta = fd_grad(params, values, kappa)
        for got, want in ((dtheta, ftheta), (dbeta, fbeta)):
            scale = np.maximum(np.abs(want), 1e-8)
            worst = max(worst, float((np.abs(got - want) / scale).max()))
    elapsed = time.perf_counter() - start

    failures = []
    if worst >= 1e-4:
        failures.append(f"worst relative error {worst:.3e}")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s")
    report(2, "gradients match finite differences", failures)


def test_acceptance_3_transform_inverse_composes_to_identity():
    """transform_inverse(transform(b)) within 1e-9 over 10k random
    draws spanning shapes up to five groups of three pieces."""
    shapes = [(5, 5, 3), (2, 1, 1), (3, 2, 2), (4, 1, 4)]
    rng = np.random.default_rng(509)
    worst = 0.0
    for index in range(10_000):
        n, k, j = shapes[index % len(shapes)]
        params = MonotoneNetParams(rng.normal(0.0, 0.8, (n, k, j)),
                                   rng.normal(0.0, 0.8, (n, k, j)), 100.0)
        bidder = int(rng.integers(n))
        bid = float(rng.uniform(-5.0, 5.0))
        back = transform_inverse(params, bidder, transform(params, bidder, bid))
        worst = max(worst, abs(back - bid))

    failures = []
    if worst > 1e-9:
        failures.append(f"worst round-trip error {worst:.3e}")
    report(3, "bid transform inverts exactly", failures)


def test_acceptance_4_truthfulness(u01, trained_u01, deviation_suite):
    """Second-price, the analytic optimum and the trained net admit zero
    profitable misreports over 10k profiles x 10 deviations, beyond the
    deviation suite's 1e-12 float-noise tolerance."""
    params, _ = trained_u01
    rng = np.random.default_rng(77)
    profiles = u01.sample(rng, (10_000, 5))

    failures = []
    for label, clear in (("spa", spa_batch), ("myerson", lambda v: myerson_batch(v, u01))):
        violations, trials, worst = deviation_suite(
            clear, profiles, u01, 10, np.random.default_rng(78))
        if violations:
            failures.append(f"{label}: {violations}/{trials} profitable misreports")

    violations, trials, worst = deviation_suite(
        lambda v: clear_batch(params, v), profiles, u01, 10, np.random.default_rng(79))
    if violations:
        failures.append(f"trained net: {violations}/{trials} profitable misreports, "
                        f"worst gain {worst:.3e}")
    report(4, "misreports never profit", failures)


def test_acceptance_5_trained_net_beats_second_price(u01, big_test_profiles,
                                                     big_test_revenues):
    """Default-budget training on uniform [0, 1] must beat second price
    on 100k fresh profiles and capture at least half of the analytic
    revenue gap, all in under five minutes."""
    start = time.perf_counter()
    params, _ = train(NetConfig(seed=0), u01)
    dla = clear_batch(params, big_test_profiles)[1]
    elapsed = time.perf_counter() - start

    spa, mye = big_test_revenues
    capture = (dla.mean() - spa.mean()) / (mye.mean() - spa.mean())

    failures = []
    if not dla.mean() > spa.mean():
        failures.append(f"dla {dla.mean():.6f} <= spa {spa.mean():.6f}")
    if capture < 0.5:
        failures.append(f"captured {capture:.1%} of the analytic gap")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s")
    report(5, "trained net beats second price", failures)


def test_acceptance_6_default_pipeline_on_high_support(tmp_path):
    """Stock config end to end: train, then score 300 revenue-gap cases
    on the uniform [0.5, 1] market.  The gap curve must come out sorted
    and the mean gap within 0.05 of zero, in under two minutes."""
    start = time.perf_counter()
    ckpt = tmp_path / "default.ckpt"
    gaps_csv = tmp_path / "gaps.csv"
    rc_train = main(["train", "--out", str(ckpt)])
    rc_gap = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(gaps_csv)])
    elapsed = time.perf_counter() - start

    failures = []
    if rc_train != 0 or rc_gap != 0:
        failures.append(f"exit codes train={rc_train} revenue-gap={rc_gap}")
    else:
        rows = gaps_csv.read_text().splitlines()[1:]
        gaps = np.array([float(line.split(",")[1]) for line in rows])
        if len(gaps) != 300:
            failures.append(f"{len(gaps)} cases instead of 300")
        if np.any(np.diff(gaps) < 0.0):
            failures.append("gap curve not sorted ascending")
        if abs(gaps.mean()) > 0.05:
            failures.append(f"mean gap {gaps.mean():.4f} outside [-0.05, 0.05]")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s")
    report(6, "stock pipeline holds on the high support", failures)


def test_acceptance_7_valuation_oracles():
    """Distance, image MSE, bilinear pricing, and pile aggregation
    against hand-computed and brute-force oracles."""
    failures = []
    if distance((0.0, 0.0), (3.0, 4.0)) != 5.0:
        failures.append("3-4-5 distance")
    if distance((1.0, 1.0), (4.0, 5.0)) != math.sqrt(9.0 + 16.0):
        failures.append("offset 3-4-5 distance")

    img = np.full((4, 4), 0.3)
    if pair_mse(img, img) != 0.0:
        failures.append("identical-image MSE")
    if pair_mse(np.zeros((2, 3)), np.ones((2, 3))) != 1.0:
        failures.append("all-different MSE")
    if pair_mse(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]])) != 0.25:
        failures.append("quarter MSE")

    rng = np.random.default_rng(701)
    for _ in range(200):
        s, d = rng.uniform(0.0, 3.0, 2)
        if valuation_score(2.0 * s, d) != 2.0 * valuation_score(s, d):
            failures.append("doubling similarity must double the price")
            break

    for _ in range(40):
        rows, cols = rng.integers(1, 5, 2)
        a = rng.random((3, rows, cols))
        b = rng.random((3, rows, cols))
        pairs = [pair_mse(x, y) for x in a for y in b]
        if abs(pile_similarity(a[None], b)[0] - np.mean(pairs)) > 1e-12:
            failures.append("mean pile aggregation")
            break
        if abs(pile_similarity(a[None], b, "min")[0] - min(pairs)) > 1e-12:
            failures.append("min pile aggregation")
            break
    report(7, "valuation oracles agree", failures)


def test_acceptance_8_simulator_replay_and_invariants(tmp_path, datadir):
    """The pinned episode must reproduce byte for byte from its config,
    and 100 random episodes must drain the battery monotonically while
    always flying to the highest-value device."""
    failures = []
    out = tmp_path / "episode.csv"
    rc = main(["simulate", "--mechanism", "spa", "--config", str(datadir / "golden_world.cfg"),
               "--out", str(out)])
    golden = (datadir / "golden_episode.csv").read_bytes()
    if rc != 0:
        failures.append(f"simulate exited {rc}")
    elif out.read_bytes() != golden:
        failures.append("episode log differs from the pinned bytes")

    for seed in range(100):
        config = WorldConfig(n_devices=4, area_width=600.0, area_height=600.0,
                             image_rows=6, image_cols=6, pile_size=2, battery=1200.0,
                             uav_x=300.0, uav_y=300.0, seed=seed, max_rounds=8)
        state = generate_world(config)
        records = run_episode(state, SecondPriceMechanism())
        battery = config.battery
        for record in records:
            after = max(0.0, battery - record.distance_flown)
            if after > battery:
                failures.append(f"seed {seed}: battery increased")
            battery = after
            winner = record.outcome.winner
            if winner is not None and winner != int(np.argmax(record.valuations)):
                failures.append(f"seed {seed}: winner not the top valuation")
        if battery != state.battery:
            failures.append(f"seed {seed}: battery accounting drifted")
        if failures:
            break
    report(8, "episodes replay and stay physical", failures)
