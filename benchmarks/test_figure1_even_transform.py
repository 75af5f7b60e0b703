"""Figure 1 — Even's transformation example.

Reproduces the paper's worked example: the 9-vertex graph whose edge max
flow from ``a`` to ``i`` is 3 while the vertex connectivity is 1, and shows
that the max flow on the transformed graph equals the vertex connectivity.
"""

from benchmarks.conftest import write_artefact
from repro.analysis.figures import format_table
from repro.graph.generators import figure1_example_graph
from repro.graph.maxflow import max_flow
from repro.graph.transform.even_transform import even_transform


def _figure1_pipeline():
    graph = figure1_example_graph()
    original_flow = max_flow(graph, "a", "i").as_int()
    transform = even_transform(graph)
    source, target = transform.flow_endpoints("a", "i")
    transformed_flow = max_flow(transform.graph, source, target).as_int()
    return graph, transform, original_flow, transformed_flow


def test_figure1_even_transform(output_dir):
    graph, transform, original_flow, transformed_flow = _figure1_pipeline()

    # Paper: max flow 3 on D, vertex connectivity kappa(a, i) = 1 on D'.
    assert original_flow == 3
    assert transformed_flow == 1
    # Structural claims of Section 4.3: 2n vertices, m + n edges.
    n = graph.number_of_vertices()
    m = graph.number_of_edges()
    assert transform.graph.number_of_vertices() == 2 * n
    assert transform.graph.number_of_edges() == m + n

    content = (
        "Figure 1 (reproduced): Even transformation example\n"
        + format_table(
            ["quantity", "paper", "measured"],
            [
                ["max flow a -> i on D", 3, original_flow],
                ["kappa(a, i) = max flow a'' -> i' on D'", 1, transformed_flow],
                ["vertices of D'", 2 * n, transform.graph.number_of_vertices()],
                ["edges of D'", m + n, transform.graph.number_of_edges()],
            ],
        )
    )
    write_artefact(output_dir, "figure1_even_transform.txt", content)
