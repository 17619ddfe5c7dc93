"""ppanalyze: privacy policies -> practice knowledge graphs -> formal policies.

Subpackage map:

  corpus      policy documents, line segmentation, brat gold annotations
  taxonomy    DPV data/purpose hierarchies and term resolution
  extraction  prompts, response repair, record/replay backend, pipeline
  graph       practice graph assembly, RDF serialization, statistics
  policyconv  conversion to ODRL policy sets and psDToU app policies
  eval        relaxed-match scoring, benchmarking, fine-tune export
  cli         the `ppanalyze` command
"""

__version__ = "0.1.0"


class Error(Exception):
    """Unusable input or a failed run, reported as one `error:` line.

    Every library exception a user can cause derives from it; `cli.main`
    catches it once.  A `ParseError` (one unusable answer, kept in the
    call's trace) and a `PromptError` (a programming error) do not.
    """
