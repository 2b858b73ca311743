# ctest figures_driver: cmake -DFIGURES=<path to rpcscope_figures> -P <this file>.
#
# Rows of the figure driver share only the const FleetContext, so printing
# several rows in one process must give exactly the single-row outputs
# concatenated in the order asked; an unknown name must exit 2 and list the
# valid names on stderr.
set(rows table1_services fig01_growth fig22_loadbalance)

set(expected "")
set(fig_args "")
foreach(row IN LISTS rows)
  execute_process(COMMAND ${FIGURES} --fig=${row} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--fig=${row} exited ${rc}")
  endif()
  if(out STREQUAL "")
    message(FATAL_ERROR "--fig=${row} printed nothing")
  endif()
  string(APPEND expected "${out}")
  list(APPEND fig_args --fig=${row})
endforeach()

execute_process(COMMAND ${FIGURES} ${fig_args} OUTPUT_VARIABLE combined RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${fig_args} exited ${rc}")
endif()
if(NOT combined STREQUAL expected)
  message(FATAL_ERROR "${fig_args} differs from the single-row outputs concatenated")
endif()

execute_process(COMMAND ${FIGURES} --fig=nope
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--fig=nope exited ${rc}, want 2")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "--fig=nope printed to stdout")
endif()
foreach(row IN LISTS rows)
  if(NOT err MATCHES "${row}")
    message(FATAL_ERROR "--fig=nope does not list ${row} on stderr")
  endif()
endforeach()
