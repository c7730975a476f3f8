"""The repository benchmark: cold synthesis, engine verification and warm
sweeps, each a closed loop with one client (see ``perfbench/README.md``)."""
