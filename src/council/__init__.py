"""Council: expert routing with success memory and dual-signal tree search.

Import from the submodules: ``council.harness`` runs a configuration,
``council.config`` defines one, ``council.cli`` is the command line.
"""

__version__ = "0.1.0"
