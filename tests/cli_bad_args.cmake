# Every bad command-line value of the CLI binaries must exit 2 with a
# message naming the flag (or the usage line), with no abort and no hang.
# Invoked as a ctest entry (see tests/CMakeLists.txt) with:
#   -DCACKLE_SIM=<cackle_sim>  -DRUN_TPCH_QUERY=<run_tpch_query>
#   -DPROFILE_TPCH=<profile_tpch>  -DELASTIC_WAREHOUSE=<elastic_warehouse>

set(failures "")

# expect_rejected(<expected stderr regex> <binary> <args>...)
function(expect_rejected pattern binary)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    TIMEOUT 10
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  get_filename_component(name "${binary}" NAME)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "${pattern}")
    set(failures "${failures}\n  ${name} ${ARGN}: exit '${rc}', stderr '${err}'"
        PARENT_SCOPE)
  endif()
endfunction()

foreach(arg
    --queries=-5 --queries=abc --queries=5x
    --hours=nan --hours=abc --hours=0 --hours=-1 --hours=inf
    --period_min=0 --period_min=-3
    --baseline=-0.1 --baseline=1.5 --batch=2 --batch=nan
    --premium=-1 --premium=0 --startup_s=-10 --seed=-1
    --strategies=fixed_-3 --strategies=fixed_x --strategies=mean_nan
    --strategies=mean_-1 --strategies=mean_1e300 --strategies=mean_3601
    --strategies=dynamic,bogus)
  string(REGEX REPLACE "([][+.*?()^$|\\\\])" "\\\\\\1" escaped "${arg}")
  expect_rejected("invalid flag ${escaped}: want" "${CACKLE_SIM}" "${arg}")
endforeach()

# Trace files that fail to load: a missing file, a malformed row, and a
# second so large that adding one to it would overflow.
set(trace_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_bad_args_traces")
file(MAKE_DIRECTORY "${trace_dir}")
file(WRITE "${trace_dir}/malformed.csv" "second,demand\n0,5\n1,abc\n")
file(WRITE "${trace_dir}/huge_second.csv" "9223372036854775807,5\n")
expect_rejected("invalid flag --trace=.*: IoError: cannot open" "${CACKLE_SIM}"
    "--trace=${trace_dir}/missing.csv")
expect_rejected("invalid flag --trace=.*: .*line 3: bad demand value"
    "${CACKLE_SIM}" "--trace=${trace_dir}/malformed.csv")
expect_rejected("invalid flag --trace=.*: .*longer than 400 days"
    "${CACKLE_SIM}" "--trace=${trace_dir}/huge_second.csv")
file(REMOVE_RECURSE "${trace_dir}")

foreach(args "0" "26" "-1" "abc" "1;0" "1;-0.5" "1;nan" "1;0.01;0"
    "1;0.01;-2" "1;0.01;x")
  expect_rejected("usage: run_tpch_query" "${RUN_TPCH_QUERY}" ${args})
endforeach()

foreach(args "0" "-1" "nan" "abc")
  expect_rejected("usage: profile_tpch" "${PROFILE_TPCH}" ${args})
endforeach()

foreach(args "-5" "0" "abc" "1;2")
  expect_rejected("usage: elastic_warehouse" "${ELASTIC_WAREHOUSE}" ${args})
endforeach()

if(failures)
  message(FATAL_ERROR "bad arguments were not rejected:${failures}")
endif()
