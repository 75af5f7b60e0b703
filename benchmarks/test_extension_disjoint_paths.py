"""Extension — lookup resilience over node-disjoint paths (S/Kademlia [1]).

The paper motivates measuring vertex connectivity with Menger's theorem:
``kappa`` node-disjoint paths exist between any node pair, so up to
``kappa - 1`` compromised nodes can be tolerated.  S/Kademlia (the paper's
reference [1]) turns that into a lookup procedure.  This benchmark closes
the loop: in a network where a quarter of the nodes run the eclipse
adversary, lookup success must not decrease as the number of disjoint
lookup paths grows.
"""

from benchmarks.conftest import write_artefact
from repro.extensions.evaluation import disjoint_path_study

PATH_COUNTS = (1, 2, 3, 4)


def test_extension_disjoint_path_lookups(output_dir):
    rows = disjoint_path_study(
        node_count=300,
        compromised_fraction=0.25,
        path_counts=PATH_COUNTS,
        lookups=40,
        seed=17,
    )

    header = (
        f"{'paths d':>7} {'owner hit rate':>15} {'replica hit rate':>17} "
        f"{'mean round-trips':>17}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.path_count:>7} {row.owner_hit_rate:>15.2f} "
            f"{row.replica_hit_rate:>17.2f} {row.mean_queried:>17.1f}"
        )
    write_artefact(output_dir, "extension_disjoint_paths.txt", "\n".join(lines))

    by_d = {row.path_count: row for row in rows}
    # More disjoint paths never hurt, and the multi-path lookups beat the
    # single-path baseline against the eclipse adversary.
    assert by_d[4].replica_hit_rate >= by_d[1].replica_hit_rate
    assert by_d[4].owner_hit_rate >= by_d[1].owner_hit_rate
    # More paths cost more round-trips (the price of the resilience).
    assert by_d[4].mean_queried >= by_d[1].mean_queried
