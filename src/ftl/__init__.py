"""Behavioral modeling, training, and netlist mapping of flash threshold
logic cells."""

__version__ = "0.1.0"
