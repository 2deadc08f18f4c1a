#!/usr/bin/env python
"""Quickstart: train a GraphSAGE model with GNNDrive on a tiny graph.

This walks the full public API surface in ~30 lines:

1. generate a synthetic disk-resident dataset,
2. build a simulated machine (scaled from the paper's 32 GB testbed),
3. run GNNDrive's pipelined disk-based training for a few epochs,
4. inspect timing, stage breakdown, and validation accuracy.

Run:  python examples/quickstart.py
"""

from repro.core import GNNDrive, GNNDriveConfig
from repro.core.base import TrainConfig
from repro.graph import make_dataset
from repro.machine import Machine, MachineSpec


def main():
    # A 2000-node community graph with learnable planted labels.
    dataset = make_dataset("tiny", seed=0)
    print(f"dataset: {dataset.name} | {dataset.num_nodes} nodes, "
          f"{dataset.num_edges} edges, dim {dataset.dim}, "
          f"{dataset.num_classes} classes")
    print(f"on-SSD: topology {dataset.topo_nbytes() >> 10} KiB, "
          f"features {dataset.feat_nbytes() >> 10} KiB")

    # The paper's machine, memory-scaled to the dataset.
    machine = Machine(MachineSpec.paper_scaled(host_gb=32))

    system = GNNDrive(
        machine, dataset,
        TrainConfig(model_kind="sage", batch_size=20),
        GNNDriveConfig(device="gpu"),
    )
    print(f"\nGNNDrive sized itself: {system.num_extractors} extractors, "
          f"feature buffer {system.num_feature_slots} slots "
          f"(Mb={system.max_batch_nodes}), "
          f"training-queue depth {system.train_queue_depth}\n")

    stats = system.run_epochs(4, eval_every=1)
    for s in stats:
        print(f"epoch {s.epoch}: {s.epoch_time * 1e3:7.2f} ms simulated | "
              f"loss {s.loss:.3f} | val acc {s.val_acc:.3f} | "
              f"sample {s.stages.sample * 1e3:6.2f} ms, "
              f"extract {s.stages.extract * 1e3:6.2f} ms, "
              f"train {s.stages.train * 1e3:6.2f} ms | "
              f"feature reuse {s.reuse_ratio:.0%}")
    system.shutdown()

    print(f"\nSSD bytes read: {machine.ssd.bytes_read >> 10} KiB "
          f"across {machine.ssd.requests} requests")
    print("done: the pipeline overlaps extraction with training, so the "
          "summed stage times exceed the wall-clock epoch time.")


if __name__ == "__main__":
    main()
