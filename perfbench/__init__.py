"""Host-throughput benchmark of the NeoMem simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh interpreter sessions and
prints its metrics; see ``perfbench/README.md`` for what each workload
and metric means.
"""
