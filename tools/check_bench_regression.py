#!/usr/bin/env python3
"""Compare a fresh bench_sparse_inference.json against the checked-in
BENCH_sparse_inference.json snapshot and fail on a real throughput
regression.

Gate design: CI runners and the snapshot box differ in core count,
cache and load, so absolute ms / samples_per_s are not comparable
across machines. The gate therefore checks the *normalized* throughput
ratios the bench computes on-box:

  - sparsity_sweep speedup at the 0.9 and 0.95 points (compiled best
    path vs the interpreted dense path on the same machine) must stay
    within TOLERANCE of the snapshot's value.

  - kernel_tiers (required in the fresh document): on a box whose
    detected tier is avx2, the hand-written AVX2 fp32 spmm_t kernel
    must stay >= 1.5x over the scalar reference kernel — a
    same-machine, same-process ratio, so it gates on every runner
    independent of the snapshot box. Elsewhere the tier rows are
    informational.

TOLERANCE is 30% (noisy-box tolerant): the point is to catch a kernel
or heuristic change that halves the sparse win, not to chase scheduler
jitter.

Schema evolution: the bench JSON grows a section per PR (quant_kernel,
executor, op_breakdown, ...). Sections this script does not know about
are IGNORED, so adding or dropping such a section never breaks the gate
and a fresh bench can be compared against an older snapshot. The
inverse is not tolerated: if a section this script *requires* is
missing from either document, that is a schema break (a bench refactor
silently dropped output) and the check fails with a message naming the
document and the section, rather than passing vacuously or dying on a
KeyError.

Serving gates (--serving bench_serving_load.json): unlike the sweep,
the serving bench is gated against *itself*, not a snapshot — the
scheduler's contract is scale-free ("p50 must not collapse when
workers are added", "admitted p99 holds the SLO below saturation",
"overload sheds instead of queueing"), so no cross-machine baseline is
needed. The queueing gates only bind when the runner reports >= 4
cores; on smaller boxes workers share cores, nominal load factors
overstate true capacity, and every serving number is printed as
informational instead.

Streaming gates (--streaming bench_streaming_latency.json): like the
serving gates, self-contained — the streaming contract is scale-free.
Three things are gated on ANY core count (they hold structurally, not
by machine speed): the streamed outputs must match the whole-window
pass bitwise, the delta path must have fired on the bench's silent
frames (delta_skips > 0), and the streamed per-event p99 must beat the
whole-window latency (per-event latency is the point of streaming; a
single step can never legitimately take longer than the whole window).

Usage: check_bench_regression.py <fresh.json> <snapshot.json>
                                 [--serving serving.json]
                                 [--streaming streaming.json]
Exit 0 = no regression, 1 = regression (or malformed input).
"""

import json
import sys

TOLERANCE = 0.30
GATED_SPARSITIES = (0.9, 0.95)

# Serving gates (see ISSUE acceptance): p50 with 4 workers at fixed
# offered load must stay within 1.5x of the 1-worker p50 (the bug this
# guards against inverted the curve to ~4x), and the admitted p99 at
# <= 80% of pool saturation must hold the SLO (1.25x headroom for
# runner jitter on the tail).
SERVING_P50_SCALING_MAX = 1.5
SERVING_P99_SLO_HEADROOM = 1.25
SERVING_MIN_CORES = 4

# Floor for the hand-written AVX2 fp32 spmm_t kernel over the scalar
# reference kernel, measured by the bench's kernel_tiers
# section (min-of-repeats on the fc1-scale layer). Binds only when the
# *fresh* run's box detected avx2; elsewhere the tier numbers are
# printed as informational (the dispatch layer clamps, so there is no
# AVX2 kernel to gate).
KERNEL_TIER_AVX2_MIN_SPEEDUP = 1.5

# Sections that must exist (and be non-empty) in both documents. Only
# the sections the gate actually reads are required; everything else in
# the JSON is informational and may come or go between versions.
# kernel_tiers is required in the *fresh* document only (older
# snapshots predate it); see check_kernel_tiers.
REQUIRED_SECTIONS = ("sparsity_sweep",)
REQUIRED_FRESH_SECTIONS = ("kernel_tiers",)


def check_required_sections(doc, label):
    """Return a list of human-readable errors for missing sections."""
    errors = []
    for section in REQUIRED_SECTIONS:
        if section not in doc:
            errors.append(
                f"FAIL: required section '{section}' missing from {label} -- "
                f"the bench schema changed (or the wrong JSON was passed); "
                f"refusing to pass vacuously")
        elif not doc[section]:
            errors.append(
                f"FAIL: required section '{section}' in {label} is empty")
    return errors


def sweep_speedups(doc):
    out = {}
    for entry in doc.get("sparsity_sweep", []):
        out[round(float(entry["sparsity"]), 4)] = float(entry["speedup"])
    return out


def check_kernel_tiers(doc):
    """Gate the SIMD tier section of the fresh document.

    The AVX2 fp32 spmm_t kernel must beat the scalar reference kernel
    by KERNEL_TIER_AVX2_MIN_SPEEDUP on a box that detected avx2; on any
    other box the tier numbers are informational (there is no AVX2
    kernel running to gate). Gating fresh-against-itself is sound
    because the ratio is computed between two kernels on the same
    machine in the same process — no cross-machine baseline involved.
    """
    tiers = doc["kernel_tiers"]
    detected = str(tiers.get("detected", ""))
    gated = detected == "avx2"
    mode = "gated" if gated else f"informational: detected tier '{detected}'"
    ok = True

    speedup = float(tiers.get("avx2_fp32_spmm_t_speedup", -1.0))
    if gated:
        status = "ok" if speedup >= KERNEL_TIER_AVX2_MIN_SPEEDUP else "REGRESSION"
        print(f"kernel_tiers: avx2 fp32 spmm_t = {speedup:.2f}x over scalar "
              f"(floor {KERNEL_TIER_AVX2_MIN_SPEEDUP}x) -> {status} ({mode})")
        if speedup < KERNEL_TIER_AVX2_MIN_SPEEDUP:
            ok = False
    else:
        print(f"kernel_tiers: no avx2 gate ({mode})")

    for entry in tiers.get("kernels", []):
        kernel = entry.get("kernel", "?")
        precision = entry.get("precision", "?")
        scalar_ms = float(entry.get("scalar_ms", 0.0))
        avx2_ms = float(entry.get("avx2_ms", -1.0))
        if avx2_ms > 0.0 and scalar_ms > 0.0:
            print(f"info: {kernel}/{precision} avx2 {avx2_ms:.3f} ms vs "
                  f"scalar {scalar_ms:.3f} ms ({scalar_ms / avx2_ms:.2f}x)")
    return ok


def check_serving(doc):
    """Self-contained queueing gates over a bench_serving_load.json.

    Returns True when everything gated passed (or the box is too small
    to gate and everything was downgraded to informational).
    """
    serving = doc.get("serving")
    if not serving:
        print("FAIL: 'serving' section missing/empty in serving JSON -- "
              "the serving bench schema changed; refusing to pass vacuously")
        return False

    cores = int(doc.get("cores", 0))
    gated = cores >= SERVING_MIN_CORES
    mode = "gated" if gated else f"informational: {cores} < {SERVING_MIN_CORES} cores"
    ok = True

    # Gate 1: adding workers at fixed offered load must not inflate p50.
    scaling = float(serving.get("p50_scaling", 0.0))
    status = "ok" if scaling <= SERVING_P50_SCALING_MAX else "REGRESSION"
    print(f"serving: p50@4w / p50@1w = {scaling:.2f}x "
          f"(max {SERVING_P50_SCALING_MAX}x) -> {status} ({mode})")
    if gated and scaling > SERVING_P50_SCALING_MAX:
        ok = False

    # Gate 2: below saturation the admitted tail holds the SLO; past
    # saturation the scheduler must shed rather than queue unboundedly.
    for point in serving.get("slo_sweep", []):
        load = float(point.get("load_factor", 0.0))
        slo_ms = float(point.get("slo_ms", 0.0))
        p99 = float(point.get("e2e_p99_ms", 0.0))
        shed_rate = float(point.get("shed_rate", 0.0))
        if load <= 0.8 and slo_ms > 0.0:
            ceiling = slo_ms * SERVING_P99_SLO_HEADROOM
            status = "ok" if p99 <= ceiling else "REGRESSION"
            print(f"serving: load {load}x admitted p99 {p99:.2f} ms vs "
                  f"SLO {slo_ms:.2f} ms (ceiling {ceiling:.2f}) -> {status} ({mode})")
            if gated and p99 > ceiling:
                ok = False
        if load >= 1.5:
            status = "ok" if shed_rate > 0.0 else "REGRESSION"
            print(f"serving: load {load}x shed rate {shed_rate:.3f} "
                  f"(must be > 0 in overload) -> {status} ({mode})")
            if gated and shed_rate <= 0.0:
                ok = False
    return ok


def check_streaming(doc):
    """Self-contained streaming gates over a bench_streaming_latency.json.

    Bitwise equivalence, delta-path activity and the per-event latency
    advantage are structural properties and gate on every box.
    """
    streaming = doc.get("streaming")
    if not streaming:
        print("FAIL: 'streaming' section missing/empty in streaming JSON -- "
              "the streaming bench schema changed; refusing to pass vacuously")
        return False

    ok = True

    bitwise = int(streaming.get("bitwise_ok", 0))
    status = "ok" if bitwise == 1 else "REGRESSION"
    print(f"streaming: streamed outputs bitwise == whole-window -> {status} (gated)")
    if bitwise != 1:
        ok = False

    skips = int(streaming.get("delta_skips", 0))
    status = "ok" if skips > 0 else "REGRESSION"
    print(f"streaming: delta_skips {skips} (must be > 0: silent frames must "
          f"skip weight ops) -> {status} (gated)")
    if skips <= 0:
        ok = False

    window_ms = float(streaming.get("whole_window_ms", 0.0))
    step_p99 = float(streaming.get("step_p99_ms", 0.0))
    status = "ok" if 0.0 < step_p99 < window_ms else "REGRESSION"
    print(f"streaming: per-event p99 {step_p99:.2f} ms vs whole-window "
          f"{window_ms:.2f} ms -> {status} (gated)")
    if not 0.0 < step_p99 < window_ms:
        ok = False
    return ok


def main(argv):
    serving_path = None
    if "--serving" in argv:
        i = argv.index("--serving")
        if i + 1 >= len(argv):
            print(__doc__)
            return 1
        serving_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    streaming_path = None
    if "--streaming" in argv:
        i = argv.index("--streaming")
        if i + 1 >= len(argv):
            print(__doc__)
            return 1
        streaming_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if len(argv) != 3:
        print(__doc__)
        return 1
    with open(argv[1]) as f:
        fresh = json.load(f)
    with open(argv[2]) as f:
        snapshot = json.load(f)

    section_errors = (check_required_sections(fresh, f"fresh ({argv[1]})") +
                      check_required_sections(snapshot, f"snapshot ({argv[2]})"))
    for section in REQUIRED_FRESH_SECTIONS:
        if section not in fresh or not fresh[section]:
            section_errors.append(
                f"FAIL: required section '{section}' missing/empty in fresh "
                f"({argv[1]}) -- the bench no longer emits it; "
                f"refusing to pass vacuously")
    if section_errors:
        for err in section_errors:
            print(err)
        print("bench regression check FAILED (schema)")
        return 1

    fresh_speedups = sweep_speedups(fresh)
    snap_speedups = sweep_speedups(snapshot)

    failed = False
    for sparsity in GATED_SPARSITIES:
        key = round(sparsity, 4)
        if key not in fresh_speedups or key not in snap_speedups:
            print(f"FAIL: sparsity point {sparsity} missing from sweep "
                  f"(fresh: {key in fresh_speedups}, snapshot: {key in snap_speedups})")
            failed = True
            continue
        fresh_v, snap_v = fresh_speedups[key], snap_speedups[key]
        floor = snap_v * (1.0 - TOLERANCE)
        status = "ok" if fresh_v >= floor else "REGRESSION"
        print(f"sparsity {sparsity}: speedup {fresh_v:.2f}x vs snapshot {snap_v:.2f}x "
              f"(floor {floor:.2f}x) -> {status}")
        if fresh_v < floor:
            failed = True

    if not check_kernel_tiers(fresh):
        failed = True

    # Informational, not gated.
    breakdown = fresh.get("op_breakdown", {})
    if breakdown.get("ops"):
        hottest = max(breakdown["ops"],
                      key=lambda op: op.get("mean_us", 0.0) * op.get("runs", 0))
        print(f"info: hottest op = {hottest.get('layer', '?')} "
              f"({hottest.get('kind', '?')}), "
              f"share {100.0 * hottest.get('share', 0.0):.1f}%")

    if serving_path is not None:
        with open(serving_path) as f:
            serving_doc = json.load(f)
        if not check_serving(serving_doc):
            failed = True

    if streaming_path is not None:
        with open(streaming_path) as f:
            streaming_doc = json.load(f)
        if not check_streaming(streaming_doc):
            failed = True

    if failed:
        print("bench regression check FAILED")
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
