# ctest script for the persistent DesignStore contract: the same CLI command
# run twice with --store must emit a byte-identical run log (warm-start
# determinism), the warm run must actually be served from disk
# (engine.store.persist.hits > 0), `aapx library query` must print the
# surface the cold run characterized, and the `aapx library` tooling chain
# (build -> query -> info -> merge) must round-trip the built library file.
# Invoked as: cmake -DAAPX_BIN=<aapx> -DWORKDIR=<scratch> -P cli_store_test.cmake
if(NOT DEFINED AAPX_BIN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DAAPX_BIN=<path to aapx> -DWORKDIR=<scratch dir>")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(store "${WORKDIR}/store.aapx")
set(log "${WORKDIR}/run.jsonl")
set(metrics "${WORKDIR}/run_metrics.json")

function(check_contains text pattern what)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: expected to match '${pattern}', got:\n${text}")
  endif()
endfunction()

function(check_lacks text pattern what)
  if(text MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: expected no match for '${pattern}', got:\n${text}")
  endif()
endfunction()

# The invocation under test. Cold and warm runs use the *identical* argv —
# the run-log manifest records the command line, so any difference there
# would break the byte-identity comparison for a trivial reason.
set(cmd "${AAPX_BIN}" characterize --kind adder --width 8 --arch ripple
        --years 1,10 --store "${store}" --log "${log}" --metrics "${metrics}")

# --- 1. cold run: builds everything, saves the store ------------------------
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE cold_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold characterize failed (rc=${rc}):\n${cold_out}\n${err}")
endif()
if(NOT EXISTS "${store}")
  message(FATAL_ERROR "cold run did not write the store file ${store}")
endif()
file(COPY_FILE "${log}" "${WORKDIR}/cold.jsonl")
file(READ "${metrics}" cold_metrics)
check_contains("${cold_metrics}" "\"engine.store.persist.hits\":0"
               "cold metrics (no disk hits on a cold start)")

# --- 2. library query prints the surface the cold run characterized -------
# The store file is the approximation library: no separate export is needed.
execute_process(
  COMMAND "${AAPX_BIN}" library query --store "${store}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE query_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "library query on the cold store failed (rc=${rc}):\n${query_out}\n${err}")
endif()
string(REGEX MATCHALL "\\|[^\n]*" rows "${cold_out}")
list(LENGTH rows nrows)
if(nrows LESS 3)
  message(FATAL_ERROR "characterize printed no surface table:\n${cold_out}")
endif()
foreach(row IN LISTS rows)
  string(FIND "${query_out}" "${row}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "library query lacks the characterize row '${row}':\n${query_out}")
  endif()
endforeach()

# --- 3. warm run: identical argv, served from the snapshot ------------------
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE warm_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm characterize failed (rc=${rc}):\n${warm_out}\n${err}")
endif()
if(NOT cold_out STREQUAL warm_out)
  message(FATAL_ERROR "warm stdout differs from cold stdout:\n--- cold ---\n${cold_out}\n--- warm ---\n${warm_out}")
endif()

# --- 4. the warm run log is byte-identical to the cold one ------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORKDIR}/cold.jsonl" "${log}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm run log is not byte-identical to the cold one "
                      "(cmp ${WORKDIR}/cold.jsonl ${log})")
endif()

# --- 5. the warm run was actually served from disk --------------------------
file(READ "${metrics}" warm_metrics)
check_contains("${warm_metrics}" "\"engine.store.persist.hits\":[1-9]"
               "warm metrics (persist hits)")
check_contains("${warm_metrics}" "\"engine.store.persist.loads\":1"
               "warm metrics (store loaded once)")

# --- 6. library build -> query -> info -------------------------------------
set(lib "${WORKDIR}/lib.aapx")
execute_process(
  COMMAND "${AAPX_BIN}" library build --out "${lib}" --kinds adder
          --widths 6,8 --arch ripple --years 1,10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "library build failed (rc=${rc}):\n${out}\n${err}")
endif()
check_contains("${out}" "library with 2 surface" "library build")

execute_process(
  COMMAND "${AAPX_BIN}" library query --store "${lib}" --kind adder --width 6
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "library query failed (rc=${rc}):\n${out}\n${err}")
endif()
check_contains("${out}" "1 surface\\(s\\) matched" "library query")
check_contains("${out}" "precision" "library query table")

execute_process(
  COMMAND "${AAPX_BIN}" library info --store "${lib}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "library info failed (rc=${rc}):\n${out}\n${err}")
endif()
check_contains("${out}" "format version: 5" "library info")
check_contains("${out}" "surface" "library info census")

# --- 7. merge the library with the characterize store -----------------------
set(merged "${WORKDIR}/merged.aapx")
execute_process(
  COMMAND "${AAPX_BIN}" library merge --out "${merged}"
          --inputs "${lib},${store}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "library merge failed (rc=${rc}):\n${out}\n${err}")
endif()
check_contains("${out}" "from 2 file\\(s\\)" "library merge")
execute_process(
  COMMAND "${AAPX_BIN}" library info --store "${merged}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "info on merged file failed (rc=${rc}):\n${out}\n${err}")
endif()
# Both inputs synthesized netlists, aged libraries and STA delays, yet no
# file holds a record of them: the census lists surfaces only.
check_contains("${out}" "format version: 5 \\(this binary: 5\\)" "merged info")
check_contains("${out}" "\\| surface " "merged info census")
foreach(kind netlist aged_library sta_delay)
  check_lacks("${out}" "\\| ${kind} " "merged info census")
endforeach()

# --- 8. a damaged store degrades to a cold run, not a failure ---------------
file(WRITE "${store}" "this is not a store file")
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "characterize over a damaged store failed (rc=${rc}):\n${out}\n${err}")
endif()
check_contains("${err}" "aapx store:" "damaged-store warning")
if(NOT cold_out STREQUAL out)
  message(FATAL_ERROR "damaged-store run output differs from cold output")
endif()

message(STATUS "cli_store_test: all stages passed")
