"""Run the command line as `python -m freeprob`."""

from .cli import entrypoint

entrypoint()
