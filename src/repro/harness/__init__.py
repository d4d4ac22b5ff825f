"""repro.harness — the paper's seven artifacts as sweeps.

One module per artifact family turns its matrix into serializable
`repro.runx` cell specs (``*_cell_specs``), reduces the runner's
``{cell_id: CellResult}`` back into rows or series (``assemble_*``), and
renders them next to the paper's values.  Every ``repro-smm`` table and
figure subcommand, and ``repro-smm submit``, runs through these.
"""
