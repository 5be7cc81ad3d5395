"""Wireless signal authentication simulator and membership inference attack testbed."""

__version__ = "0.1.0"
