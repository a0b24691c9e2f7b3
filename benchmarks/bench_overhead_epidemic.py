"""Experiment ``overhead-epidemic`` — C-ARQ vs epidemic exchange (§3.3).

§3.3 argues the cooperation "would not behave as epidemic routing":
C-ARQ moves only packets the destination is missing, on demand.  The
comparison runs both schemes in the same dark area and counts the bytes
cars transmit to reach their final delivery: epidemic anti-entropy pays
for summary vectors plus bidirectional flooding.
"""

from repro.analysis.report import format_table
from repro.scenarios.common import collect_matrices
from repro.scenarios.urban import UrbanScenarioConfig, build_urban_round

ROUNDS = 5


def run_mode(mode: str):
    cfg = UrbanScenarioConfig(seed=1201, mode=mode)
    car_bytes = tx = after = 0
    for index in range(ROUNDS):
        ctx = build_urban_round(cfg, index)
        ctx.run()
        car_bytes += sum(car.iface.bytes_sent for car in ctx.cars.values())
        for matrix in collect_matrices(ctx.capture, ctx.cars).values():
            tx += matrix.tx_by_ap
            after += matrix.lost_after_coop
    return {"car_kb": car_bytes / ROUNDS / 1000.0, "after_pct": 100.0 * after / tx}


def test_epidemic_overhead(artifact_sink):
    carq = run_mode("carq")
    epidemic = run_mode("epidemic")

    text = format_table(
        ["Scheme", "Loss after recovery", "Car-transmitted kB/round"],
        [
            ["C-ARQ (paper)", f"{carq['after_pct']:.1f}%", f"{carq['car_kb']:.0f}"],
            ["epidemic exchange [6]", f"{epidemic['after_pct']:.1f}%",
             f"{epidemic['car_kb']:.0f}"],
        ],
        title="Dark-area recovery overhead",
    )
    artifact_sink("overhead-epidemic", text)

    # Both recover (far below the ~35 % raw loss) …
    assert carq["after_pct"] < 25.0
    assert epidemic["after_pct"] < 25.0
    # … but epidemic anti-entropy costs materially more car airtime.
    assert epidemic["car_kb"] > carq["car_kb"] * 1.3
