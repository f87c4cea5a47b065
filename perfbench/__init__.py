"""The repository's end-to-end benchmark: the realtime query, timed.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the real system and prints one
JSON result line; ``perfbench/README.md`` maps every metric to its layer
and workload.
"""
