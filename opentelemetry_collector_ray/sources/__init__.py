"""Sources — the receiver analogues (SURVEY.md §2.1).

Push receivers (OTLP gRPC/HTTP, receiver/otlpreceiver/otlp.go) have no
batch-mode equivalent; the source of a batch pipeline is a Parquet read.

The package imports none of its modules: import the one you use
(``sources.transcripts.read_transcripts``, ``sources.wirefs``, …). The
spool receiver actor uses ``wirefs`` only, and an eager import here
would load ``transcripts`` and with it Ray Data, pandas and numpy into
that actor's process.
"""
