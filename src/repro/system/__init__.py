"""System assembly and simulation harness."""
