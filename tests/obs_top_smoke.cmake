# End-to-end smoke test for the telemetry pipeline: a batch run with the
# embedded exporter on, piped into kcpq_top, which parses the "listening
# on" banner from the producer's stdout and scrapes /queries once the
# producer's first result line arrives, while the linger window keeps the
# exporter alive. Run via ctest (see tests/CMakeLists.txt); requires
# KCPQ_CLI, KCPQ_TOP, WORK_DIR.

foreach(var KCPQ_CLI KCPQ_TOP WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "obs_top_smoke: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_expect expected_code)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR "obs_top_smoke: expected exit ${expected_code}, got "
                        "${code} from: ${ARGN}\nstdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

run_expect(0 "${KCPQ_CLI}" generate uniform 1500 7 p.csv)
run_expect(0 "${KCPQ_CLI}" generate uniform 1500 8 q.csv)
run_expect(0 "${KCPQ_CLI}" build p.csv p.db --bulk)
run_expect(0 "${KCPQ_CLI}" build q.csv q.db --bulk)

# The pipeline under test: producer | kcpq_top. Multi-COMMAND
# execute_process runs the two concurrently with stdout piped, exactly
# like a shell pipeline; the results arrive only after every query has
# finished, and the linger window keeps the exporter up for the scrape.
execute_process(
  COMMAND "${KCPQ_CLI}" kcp p.db q.db 10 --threads=2 --repeat=8
          --obs-port=0 --obs-linger-ms=4000
  COMMAND "${KCPQ_TOP}" --stdin-endpoint --state=all
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "obs_top_smoke: pipeline failed (${code})\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()

# The table must contain the header and at least one completed query row.
if(NOT out MATCHES "ID +STATE +KIND")
  message(FATAL_ERROR "obs_top_smoke: no kcpq_top header in output:\n${out}")
endif()
if(NOT out MATCHES "done +kcp +k-closest-pairs")
  message(FATAL_ERROR "obs_top_smoke: no completed query row in output:\n${out}")
endif()
if(NOT out MATCHES "done_total=[1-9]")
  message(FATAL_ERROR "obs_top_smoke: flight recorder is empty:\n${out}")
endif()

# Direct-endpoint mode must reject garbage arguments.
run_expect(2 "${KCPQ_TOP}" "--bogus-flag")
