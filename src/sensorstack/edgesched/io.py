"""Serialization for event logs, metrics, and simulation specs."""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable, Sequence

from .. import jsonl
from ..errors import UsageError
from .sim import StageSpec, WorkloadSpec
from .types import NodeSpec, SchedulerConfig, SimMetrics, TopologySpec


def write_event_log(records: Iterable[dict], fp: IO[str]):
    """One compact JSON object per line, keys in record order.

    The serialization is intentionally rigid so that identical runs
    produce identical bytes.
    """
    jsonl.write_records(records, fp)


def read_event_log(fp: IO[str]) -> tuple[dict, ...]:
    return jsonl.read_records(fp, dict)


def metrics_to_dict(metrics: SimMetrics) -> dict:
    return {
        "duration_s": metrics.duration_s,
        "completed": metrics.completed,
        "throughput_per_s": metrics.throughput_per_s,
        "inversion_rate": metrics.inversion_rate,
        "offload_fraction": metrics.offload_fraction,
        "overhead_ms_mean": metrics.overhead_ms_mean,
        "class_stats": {
            str(p): {
                "count": stats.count,
                "mean_latency_s": stats.mean_latency_s,
                "wait_variance_s2": stats.wait_variance_s2,
            }
            for p, stats in sorted(metrics.class_stats.items())
        },
    }


def write_metrics_json(metrics: SimMetrics, fp: IO[str]):
    json.dump(metrics_to_dict(metrics), fp, indent=2)
    fp.write("\n")


def write_metrics_csv(metrics: SimMetrics, fp: IO[str]):
    writer = csv.writer(fp)
    writer.writerow(["metric", "value"])
    doc = metrics_to_dict(metrics)
    for key in ("duration_s", "completed", "throughput_per_s", "inversion_rate", "offload_fraction", "overhead_ms_mean"):
        writer.writerow([key, doc[key]])
    for p, stats in doc["class_stats"].items():
        for name, value in stats.items():
            writer.writerow([f"class_{p}_{name}", value])


def workload_to_dict(workload: WorkloadSpec) -> dict:
    return {
        "duration_ns": workload.duration_ns,
        "stages": [
            {
                "name": s.name,
                "compute_class": s.compute_class,
                "service_demand_ns": s.service_demand_ns,
                "initial_priority": s.initial_priority,
                "arrival_rate_hz": s.arrival_rate_hz,
            }
            for s in workload.stages
        ],
    }


def workload_from_dict(doc: dict) -> WorkloadSpec:
    with jsonl.decoding("workload spec", UsageError):
        stages = tuple(
            StageSpec(
                name=s["name"],
                compute_class=s["compute_class"],
                service_demand_ns=int(s["service_demand_ns"]),
                initial_priority=float(s["initial_priority"]),
                arrival_rate_hz=float(s["arrival_rate_hz"]),
            )
            for s in doc["stages"]
        )
        return WorkloadSpec(stages=stages, duration_ns=int(doc["duration_ns"]))


def topology_to_dict(topology: TopologySpec) -> dict:
    return {
        "nodes": [
            {
                "node_id": n.node_id,
                "kind": n.kind,
                "capacity": n.capacity,
                "overload_threshold": n.overload_threshold,
            }
            for n in topology.nodes
        ]
    }


def topology_from_dict(doc: dict) -> TopologySpec:
    with jsonl.decoding("topology spec", UsageError):
        return TopologySpec(
            nodes=tuple(
                NodeSpec(
                    node_id=n["node_id"],
                    kind=n["kind"],
                    capacity=int(n["capacity"]),
                    overload_threshold=float(n.get("overload_threshold", 0.8)),
                )
                for n in doc["nodes"]
            )
        )


def scheduler_config_from_dict(doc: dict) -> SchedulerConfig:
    with jsonl.decoding("scheduler config", UsageError):
        return SchedulerConfig(
            alpha=float(doc.get("alpha", 1.0)),
            cycle_period_ns=int(doc.get("cycle_period_ns", 100_000_000)),
            tie_break=doc.get("tie_break", "fifo"),
            batch_window_ns=int(doc.get("batch_window_ns", 100_000_000)),
        )
