"""Request lists for the four workloads, drawn from the benchmark seed.

A request is a plain dict: the CLI subcommand, its flags, an optional
JSON config (for fields the CLI has no flag for), and the inputs the
checkers need.  Every list mixes seeded draws with a few fixed requests
that keep known defects visible; the fixed ones do not depend on the
seed.  Draws are stratified (ratio bands, or design points jittered by
the seed) so the work in a pass varies little from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
WORKLOADS = ("plan", "simulate", "verify", "maps")


def _f(x: float) -> str:
    return format(float(x), ".17g")


def request(key: str, command: str, config: dict | None = None, **inputs) -> dict:
    """A request; inputs named like CLI flags become flags, the rest ride along."""
    flags = []
    for name in ("delta", "kappa", "phi", "threshold", "grid", "seed"):
        if name in inputs:
            flags += [f"--{name}", str(inputs[name]) if name in ("grid", "seed") else _f(inputs[name])]
    if inputs.get("fast"):
        flags.append("--fast")
    if inputs.get("inject_fault"):
        flags.append("--inject-fault")
    return {"key": key, "command": command, "flags": flags, "config": config, **inputs}


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def plan_requests(rng) -> list[dict]:
    reqs = [
        # Tie-break ranks float noise above duration here (W*T 10.65 vs 7.37).
        request("d3-th0.99", "plan", delta=3.0, kappa=1.0, threshold=0.99),
        # Mirror and scale partners: same |delta|/kappa0, different W*T today.
        request("d3-th0.9", "plan", delta=3.0, kappa=1.0, threshold=0.9),
        request("dm3-th0.9", "plan", delta=-3.0, kappa=1.0, threshold=0.9),
        request("d0.9k0.3-th0.9", "plan", delta=0.9, kappa=0.3, threshold=0.9),
        request("dm2-th1", "plan", delta=-2.0, kappa=1.0, threshold=1.0),
        request("d0.5-th1", "plan", delta=0.5, kappa=1.0, threshold=1.0),
        request("d5.5-th0.99", "plan", delta=5.5, kappa=1.0, threshold=0.99),
    ]
    # Search cost follows the descent bound's segment count k and, at one
    # k, still jumps with kappa0, the sign and float noise.  Each seeded
    # request draws its ratio from the middle half of the interval where
    # k is constant, at cells whose cost stays on one side of the fixed
    # d0.9k0.3-th0.9 request, so that request stays the pass's median.
    for threshold, k in ((0.9, 2), (0.99, 3), (0.9, 4), (0.9, 5)):
        lo, hi = _ratio_interval(threshold, k)
        ratio = rng.uniform(lo + (hi - lo) / 4, hi - (hi - lo) / 4)
        kappa = rng.uniform(0.3, 2.0)
        delta = _sign(rng) * ratio * kappa
        reqs.append(request(f"k{k}-th{threshold:g}", "plan", delta=delta, kappa=kappa, threshold=threshold))
    # The median request three times: the median is the middle of three
    # runs, and the repeats must write byte-identical files.
    reqs += [dict(reqs[3], key=f"d0.9k0.3-th0.9-repeat{i}", same_as=reqs[3]["key"]) for i in (1, 2)]
    return reqs


def _ratio_interval(threshold: float, k: int) -> tuple[float, float]:
    """Ratios |delta|/kappa0 at which k segments is the fewest that reach threshold.

    k segments reach (1 - cos(k (pi - 2 psi))) / 2 with psi = atan(ratio).
    """
    a = math.acos(1.0 - 2.0 * threshold)
    lo, hi = (math.tan((math.pi - a / n) / 2.0) for n in (k - 1, k))
    return lo, hi


def _jitter(rng, x: float, width: float) -> float:
    return x + rng.uniform(-width, width)


def simulate_requests(rng) -> list[dict]:
    """Two-segment solves at fixed design points, jittered by the seed.

    Each point is (ratio, phi) with a margin of at least 0.1 from the
    feasibility boundary.  The seed draws kappa0, the jitter and the
    sign of delta; wide draws would make W*T, and with it the RK4
    cross-check's cost, swing by a third from seed to seed.
    """
    points = {
        "feasible": ((0.3, math.pi - 0.5), (0.7, math.pi + 0.3)),
        "infeasible": ((0.6, 1.0), (1.6, math.pi)),
        "target": ((0.5, math.pi), (0.3, math.pi)),
    }
    # The first segment ends near |a2|^2 = 0.5, so these cuts stay in one segment.
    targets = (0.3, 0.9)
    reqs = []
    for kind, pts in points.items():
        for i, (ratio, phi) in enumerate(pts):
            kappa = rng.uniform(0.3, 2.0)
            delta = (1.0, -1.0)[i] * _jitter(rng, ratio, 0.05) * kappa
            phi = _jitter(rng, phi, 0.1)
            if kind == "target":
                target = _jitter(rng, targets[i], 0.05)
                reqs.append(request(f"target{i}", "simulate", config={"target": target}, delta=delta,
                                    kappa=kappa, phi=phi, samples=256, target=target, kind=kind))
            else:
                reqs.append(request(f"{kind}{i}", "simulate", delta=delta, kappa=kappa, phi=phi,
                                    samples=256, kind=kind))
    for i, samples in enumerate((256, 2048)):
        kappa = rng.uniform(0.3, 2.0)
        delta = (1.0, -1.0)[i] * rng.uniform(0.2, 3.0) * kappa
        w = math.hypot(delta, kappa)
        protocol = [[rng.uniform(0.0, TWO_PI), rng.uniform(0.5, 0.7) * math.pi / w] for _ in range(9)]
        reqs.append(
            request(f"explicit{samples}", "simulate", config={"protocol": protocol, "samples": samples},
                    delta=delta, kappa=kappa, samples=samples, kind="explicit")
        )
    # Two segments cannot finish at |delta| > kappa0; today this exits 0 at 0.64.
    reqs.append(request("d2-infeasible", "simulate", delta=2.0, kappa=1.0, phi=math.pi, samples=256, kind="infeasible"))
    reqs.append(dict(reqs[0], key="feasible0-repeat", same_as=reqs[0]["key"]))
    return reqs


def maps_requests(rng) -> list[dict]:
    # Three requests at grid 64, four at 256 and two at 512: the four at
    # 256 cost about the same and hold the pass's median between them, so
    # it never sits on the gap between two grid sizes.
    reqs = []
    for key, grid in (("map64", 64), ("map256a", 256), ("map256b", 256), ("map512", 512)):
        kappa = rng.uniform(0.3, 2.0)
        delta = _sign(rng) * rng.uniform(0.1, 1.5) * kappa
        phi = rng.uniform(0.0, TWO_PI)
        reqs.append(request(key, "transfer-map", delta=delta, kappa=kappa, phi=phi, grid=grid))
    reqs.append(request("feas256", "feasibility", grid=256))
    # The cascade's W*T depends on the ratio alone; fixed ratios keep it steady.
    for grid, ratio in ((64, 0.3), (256, 0.5), (512, 0.7)):
        kappa = rng.uniform(0.3, 2.0)
        delta = _sign(rng) * _jitter(rng, ratio, 0.05) * kappa
        phases = {name: rng.uniform(0.0, TWO_PI) for name in ("theta1", "theta2", "rf_offset")}
        reqs.append(
            request(f"iso{grid}", "isolator", config=phases, delta=delta, kappa=kappa, grid=grid, **phases)
        )
    # The default run: forward 0.75, backward 0.25, so it does not isolate.
    reqs.append(
        request("iso-default", "isolator", delta=0.5, kappa=1.0, grid=64,
                theta1=1.5 * math.pi, theta2=0.0, rf_offset=0.5 * math.pi)
    )
    return reqs


# Battery seeds on which every check of the fast battery passes and whose
# random protocols make the battery run 84k-98k RK4 steps.  A battery's
# time follows its RK4 steps, which range from 58k to 114k over seeds, so
# a narrow band keeps the work of a pass steady from seed to seed.  About
# one seed in 25 fails rk4_convergence (RK4_CONVERGENCE_FAILS is one), so
# seeds drawn at random would fail on some benchmark seeds only.
BATTERY_SEEDS = (
    2072389849, 2057662796, 1213525038, 228466717, 1099331152, 1293886807, 2064685235, 1627043987,
    1998110049, 1003999126, 735990591,
)
RK4_CONVERGENCE_FAILS = 528034840
DEFAULT_BATTERY_SEED = 20240817


def verify_requests(rng) -> list[dict]:
    fast_a, fast_b, fault = (int(x) for x in rng.choice(BATTERY_SEEDS, size=3, replace=False))
    return [
        request("fast-a", "verify", seed=fast_a, fast=True, inject_fault=False),
        # The full battery at the CLI's default seed, as `modeswitch verify` runs it.
        request("full", "verify", seed=DEFAULT_BATTERY_SEED, fast=False, inject_fault=False),
        request("fast-b", "verify", seed=fast_b, fast=True, inject_fault=False),
        request("fault", "verify", seed=fault, fast=True, inject_fault=True),
        # Fails every time (exit 1, rk4_convergence): counted as a failed
        # operation, and untimed, so that mending the defect moves no timing.
        request("fast-rk4-fails", "verify", seed=RK4_CONVERGENCE_FAILS, fast=True, inject_fault=False,
                untimed=True),
    ]


BUILDERS = {
    "plan": plan_requests,
    "simulate": simulate_requests,
    "verify": verify_requests,
    "maps": maps_requests,
}

# One cheap request per workload, run untimed as part of set-up.  verify
# warms up with the simulate request its output_determinism check makes
# (the CLI's default phi is pi): the cheapest battery takes seconds, and
# set-up is timed several times a run.
WARMUPS = {
    "plan": request("warmup", "plan", delta=0.5, kappa=1.0, threshold=0.9),
    "simulate": request("warmup", "simulate", delta=0.5, kappa=1.0, phi=math.pi, samples=256, kind="feasible"),
    "verify": request("warmup", "simulate", delta=0.5, kappa=1.0, samples=256, kind="feasible"),
    "maps": request("warmup", "transfer-map", delta=0.5, kappa=1.0, phi=math.pi, grid=64),
}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's request list for one pass; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng)
