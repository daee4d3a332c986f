"""Processor model and memory-consistency checking."""
