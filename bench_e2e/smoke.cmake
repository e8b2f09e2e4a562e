# ctest bench_e2e_smoke: every workload, untraced and traced, at 2% scale
# with short timed phases (run.py exits non-zero when a correctness check
# fails), then bench_compare.py on the committed fixtures: a set compared
# with itself must pass, and with its regressed copy must fail.
#
# Invoked with -DPYTHON=... -DBENCH=<bench_e2e binary> -DSRC=<bench_e2e
# source dir> -DOUT=<scratch dir>.
file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env REPRO_SCALE=0.02 BENCH_DIR=${OUT}
          ${PYTHON} ${SRC}/run.py --binary ${BENCH} --seconds 0.3
          --setups 1 --trace 1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_e2e smoke run failed (${rc})")
endif()

set(compare ${PYTHON} ${SRC}/bench_compare.py)
execute_process(
  COMMAND ${compare} --base ${SRC}/fixtures/base.json
          --head ${SRC}/fixtures/base.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_compare flagged a set against itself (${rc})")
endif()
execute_process(
  COMMAND ${compare} --base ${SRC}/fixtures/base.json
          --head ${SRC}/fixtures/regressed.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(rc EQUAL 0 OR NOT out MATCHES "REGRESSION")
  message(FATAL_ERROR "bench_compare missed the fixture regression")
endif()
