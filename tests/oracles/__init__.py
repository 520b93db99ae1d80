"""Independent reference implementations the parity tests compare against.

They live here, not in ``src/``: the library ships one kernel per job, and
each oracle is the plainest correct way to compute the same answer.
"""
