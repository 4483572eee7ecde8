"""End-to-end probe-to-query benchmark.

Drives the public layer APIs along the path a probe report takes: raw
GPS fix -> map match -> aggregate -> (sharded) Algorithm 1 -> published
estimate -> app query.  See ``README.md`` in this directory.
"""
