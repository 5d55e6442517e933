"""One module per verb of the command line.  Module verb holds the handler
verb_op of each (verb, op) key of cli.OPS, and the helpers that only that
verb uses; cli imports the module of a job's verb, and no other."""
