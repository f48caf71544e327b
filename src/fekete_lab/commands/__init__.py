"""One module per CLI subcommand, each exposing run(ns) -> int.

cli.main imports only the module that the parsed subcommand names, so a
run compiles and loads its own handler and none of the others.
"""
