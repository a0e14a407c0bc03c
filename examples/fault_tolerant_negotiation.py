"""Fault-tolerant trust negotiation, end to end.

Runs the Aircraft Optimization membership negotiation three ways:

1. fault-free, through the resilient transport stack;
2. under a *seeded* storm of message drops, lost responses, duplicate
   deliveries, and database-connect failures — survived by retries
   with exponential backoff and server-side deduplication;
3. through a TN Web service **crash** between the policy and
   credential phases — survived by per-phase checkpoints in the
   service's session journal and a restart that resumes the
   negotiation from it and produces the *identical* outcome.

The same walkthrough is wired into the CLI as ``python -m repro
faults``; try different seeds and strategies::

    python examples/fault_tolerant_negotiation.py
    python -m repro faults --seed 42 --strategy trusting
"""

from repro.api import run_fault_demo as run_demo

if __name__ == "__main__":
    raise SystemExit(run_demo(seed=7, strategy="standard"))
