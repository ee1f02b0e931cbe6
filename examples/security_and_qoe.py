"""The paper's future work, implemented: §3.6 security and QoE scoring.

Runs a CloudFog deployment in which some supernodes misbehave exactly as
§3.6 warns — inflating their billing reports (junk injection) or
deliberately delaying streams — then shows the provider-side defences
catching them, and scores the whole fleet's sessions with the QoE (MOS)
model.

Run with::

    python examples/security_and_qoe.py
"""

import numpy as np

from repro.core import CloudFogSystem, ConnectionKind, cloudfog_basic
from repro.security import (
    DelayAttackDetector,
    MaliciousProfile,
    RewardAuditor,
    ThreatKind,
    honest_report,
    malicious_report,
)
from repro.streaming.qoe import QoeModel
from repro.workload.games import GAME_CATALOGUE


def main() -> None:
    system = CloudFogSystem(cloudfog_basic(num_players=400,
                                           num_supernodes=30, seed=9))
    result = system.run(days=3)
    rng = np.random.default_rng(0)

    # ---- billing fraud: three supernodes inflate their reports ------
    fraudsters = {3, 11, 19}
    profile = MaliciousProfile(ThreatKind.JUNK_INJECTION, inflation=3.0)
    reports = []
    supported = system.state.supernode_pool.supported_total.tolist()
    for sid in system.state.live_supernodes:
        expected_gb = supported[sid] * 0.45  # ~1 Mbit/s for an hour
        if sid in fraudsters:
            reports.append(malicious_report(
                sid, expected_gb, supported[sid], profile, rng))
        else:
            reports.append(honest_report(
                sid, expected_gb, supported[sid], rng))

    auditor = RewardAuditor(tolerance=1.5)
    audit = auditor.audit(reports)
    print("Reward audit (junk-injection defence)")
    print(f"  fraudulent supernodes planted : {sorted(fraudsters)}")
    print(f"  flagged by the audit          : {sorted(audit.flagged)}")
    payable = sum(auditor.payable_gb(r) for r in reports)
    claimed = sum(r.claimed_gb for r in reports)
    print(f"  claimed {claimed:.1f} GB, payable after audit "
          f"{payable:.1f} GB\n")

    # ---- delay attacks surface through the rating stream -------------
    detector = DelayAttackDetector(min_sessions=5)
    # Compromise the busiest supernode so the attack has victims.
    session_counts: dict[int, int] = {}
    for record in result.sessions:
        if record.kind is ConnectionKind.SUPERNODE:
            session_counts[record.target] = (
                session_counts.get(record.target, 0) + 1)
    delayer = max(session_counts, key=lambda sn: session_counts[sn])
    for record in result.sessions:
        if record.kind is ConnectionKind.SUPERNODE:
            rating = record.continuity
            if record.target == delayer:
                rating = max(0.0, rating - 0.45)  # deliberate delaying
            detector.record(record.target, rating)
    print("Delay-attack detection (rating outliers)")
    print(f"  planted delayer : {delayer}")
    print(f"  suspects        : {detector.suspects()}\n")

    # ---- fleet QoE ------------------------------------------------------
    model = QoeModel()
    by_game = {g.name: g for g in GAME_CATALOGUE}
    scores = []
    for record in result.sessions:
        game = by_game[record.game]
        scores.append(model.mos(
            record.continuity, game.quality.bitrate_kbps,
            record.response_latency_ms, game.latency_requirement_ms).mos)
    scores = np.asarray(scores)
    print("Fleet QoE (mean opinion score, 1-5)")
    print(f"  mean MOS      : {scores.mean():.2f}")
    print(f"  MOS >= 4 share: {np.mean(scores >= 4.0):.1%}")
    print(f"  MOS <= 2 share: {np.mean(scores <= 2.0):.1%}")


if __name__ == "__main__":
    main()
