# scop-scale determinism: the same --seed must reproduce byte-identical IR
# (equal ir_digest), another seed must generate other programs.
#
#   cmake -DBENCH=polyast_bench -DWORK=dir -P check_determinism.cmake
function(digest seed var)
  execute_process(
    COMMAND ${BENCH} --workload scop-scale --seed ${seed} --trace 0 --smoke
            --work-dir ${WORK}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "scop-scale --seed ${seed} exited with ${rc}\n${out}")
  endif()
  if(NOT out MATCHES "info ir_digest ([0-9a-f]+)")
    message(FATAL_ERROR "no ir_digest line\n${out}")
  endif()
  set(${var} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

digest(7 first)
digest(7 again)
digest(8 other)
message("seed 7: ${first} ${again}; seed 8: ${other}")
if(NOT first STREQUAL again)
  message(FATAL_ERROR "same seed, different IR")
endif()
if(first STREQUAL other)
  message(FATAL_ERROR "different seeds, identical IR")
endif()
