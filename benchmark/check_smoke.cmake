# Runs one --smoke pass of a workload and checks the JSON on its last
# stdout line against BENCHMARK.json: exactly the metrics it names for the
# trace mode (end_to_end for 0, per_layer for 1), each with the declared
# unit, correct == true and failed == 0.
#
#   cmake -DBENCH=polyast_bench -DSPEC=BENCHMARK.json -DWORKLOAD=jit-cold
#         -DTRACE=0 -DWORK=dir -P check_smoke.cmake
execute_process(
  COMMAND ${BENCH} --workload ${WORKLOAD} --seed 7 --trace ${TRACE} --smoke
          --work-dir ${WORK}
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${WORKLOAD} exited with ${rc}")
endif()

string(STRIP "${out}" out)
string(FIND "${out}" "\n" nl REVERSE)
math(EXPR nl "${nl} + 1")
string(SUBSTRING "${out}" ${nl} -1 result)

string(JSON correct GET "${result}" correct)
string(JSON failed GET "${result}" failed)
string(JSON attempted GET "${result}" attempted)
if(NOT correct OR NOT failed EQUAL 0 OR attempted LESS 1)
  message(FATAL_ERROR "correct=${correct} failed=${failed} attempted=${attempted}")
endif()

file(READ ${SPEC} spec)
if(TRACE)
  set(section per_layer)
else()
  set(section end_to_end)
endif()
string(JSON expected LENGTH "${spec}" ${section})
string(JSON reported LENGTH "${result}" metrics)
if(NOT expected EQUAL reported)
  message(FATAL_ERROR "${reported} metrics reported, BENCHMARK.json names ${expected}")
endif()
math(EXPR last "${expected} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${spec}" ${section} ${i} name)
  string(JSON unit GET "${spec}" ${section} ${i} unit)
  string(JSON got ERROR_VARIABLE missing GET "${result}" metrics ${name} unit)
  if(missing)
    message(FATAL_ERROR "metric ${name} missing")
  endif()
  if(NOT got STREQUAL unit)
    message(FATAL_ERROR "metric ${name} has unit ${got}, expected ${unit}")
  endif()
endforeach()
