"""End-to-end GCN inference with online vs offline scheduling.

Models a 2-layer graph convolutional network on the Cora and Pubmed
stand-ins on the GPU timing model, comparing the paper's two execution
models (Section III-D):

* **offline** — the adjacency matrix is stationary, so the merge-path
  schedule is computed once and reused across inferences;
* **online** — the graph changes every inference, so the schedule is
  recomputed each time and its cost becomes visible (Figure 8).

It then runs the same model on this host's cores through
``InferenceEngine`` and prints the embeddings' summary.

Run:  python examples/gcn_inference.py
"""

from repro import SchedulingMode, load_dataset
from repro.gnn import GCN, InferenceEngine
from repro.gpu import model_gcn_inferences

HIDDEN_DIM = 16
N_INFERENCES = 5


def main() -> None:
    for name in ("Cora", "Pubmed"):
        graph = load_dataset(name)
        features = graph.random_features(HIDDEN_DIM, seed=0)
        model = GCN.random([HIDDEN_DIM, HIDDEN_DIM, HIDDEN_DIM], seed=1)
        print(f"\n=== {name}: {graph.n_nodes} nodes, {graph.n_edges} edges ===")

        for mode in (SchedulingMode.OFFLINE, SchedulingMode.ONLINE):
            schedules = 0
            kernel_cycles = schedule_cycles = 0.0
            for report in model_gcn_inferences(
                model, graph, N_INFERENCES, mode=mode
            ):
                schedules += report.schedule_computations
                kernel_cycles += report.modeled_kernel_cycles
                schedule_cycles += report.modeled_schedule_cycles
            overhead = schedule_cycles / (schedule_cycles + kernel_cycles)
            print(
                f"{mode.value:8s}: {N_INFERENCES} inferences, "
                f"{schedules} schedule computation(s), "
                f"modeled scheduling overhead {100 * overhead:.1f}%"
            )

        # The embeddings themselves are backend-independent.
        out = InferenceEngine().infer(model, graph, features).output
        print(f"embeddings: shape {out.shape}, "
              f"mean |h| = {abs(out).mean():.4f}")


if __name__ == "__main__":
    main()
