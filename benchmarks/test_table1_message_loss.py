"""Table 1 — message-loss scenarios.

Table 1 is definitional (it specifies the loss model), so the reproduction
checks that our loss models produce exactly the paper's one-way/two-way
probabilities and measures the empirical two-way failure rate of the
transport against the analytic value.
"""

import random

import pytest

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.churn.loss import LOSS_SCENARIOS
from repro.experiments.report import format_table1, table1_rows
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.protocol import Protocol
from repro.simulator.transport import Transport


class _Echo(Protocol):
    protocol_name = "kademlia"

    def handle_request(self, sender_id, request):
        return "ok"


def _measure_two_way_failure_rate(loss_name: str, trials: int = 3000) -> float:
    network = Network()
    for node_id in (1, 2):
        node = SimNode(node_id)
        node.register_protocol("kademlia", _Echo(node_id))
        network.add_node(node)
    transport = Transport(
        network,
        loss_probability=LOSS_SCENARIOS[loss_name].one_way_probability,
        rng=random.Random(1234),
    )
    failures = sum(not transport.rpc(1, 2, "probe")[0] for _ in range(trials))
    return failures / trials


def test_table1_message_loss(output_dir):
    rows = table1_rows()

    # Paper values: one-way 0 / 2.5 / 13.4 / 29.3 %, two-way 0 / 5 / 25 / 50 %.
    by_name = {row["loss"]: row for row in rows}
    assert by_name["none"]["p_loss_one_way"] == 0.0
    assert by_name["low"]["p_loss_one_way"] == pytest.approx(2.5)
    assert by_name["medium"]["p_loss_one_way"] == pytest.approx(13.4)
    assert by_name["high"]["p_loss_one_way"] == pytest.approx(29.3)
    assert by_name["low"]["p_loss_two_way"] == pytest.approx(5.0, abs=0.2)
    assert by_name["medium"]["p_loss_two_way"] == pytest.approx(25.0, abs=0.2)
    assert by_name["high"]["p_loss_two_way"] == pytest.approx(50.0, abs=0.2)

    # Empirical check: the transport's observed round-trip failure rate
    # matches the analytic two-way probability for every scenario.
    measured_rows = []
    for name in ("none", "low", "medium", "high"):
        analytic = LOSS_SCENARIOS[name].two_way_probability
        measured = _measure_two_way_failure_rate(name)
        assert measured == pytest.approx(analytic, abs=0.03)
        measured_rows.append([name, round(analytic * 100, 1), round(measured * 100, 1)])

    content = (
        "Table 1 (reproduced): message loss scenarios\n"
        + format_table1()
        + "\n\nEmpirical transport check (3000 round-trips per scenario)\n"
        + format_table(["Loss l", "analytic 2-way %", "measured 2-way %"], measured_rows)
    )
    write_artefact(output_dir, "table1_message_loss.txt", content)
