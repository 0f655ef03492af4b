"""Wall-clock benchmark of the simulated Calliope stack (see ../README.md)."""
