# Golden-output check for one figure/table/ablation bench, run as
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DOUT=<prefix>
#         -P golden_check.cmake
#
# The bench runs twice — default backend serially, SoA backend on two
# workers — and each stdout must equal the golden byte for byte. The
# captured stdout stays at <prefix>.<run>.txt for diffing on failure.

function(check_run tag)
    set(out "${OUT}.${tag}.txt")
    string(REPLACE ";" " " args "${ARGN}")
    execute_process(COMMAND "${BENCH}" ${ARGN}
                    OUTPUT_FILE "${out}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} ${args} exited with ${rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${out}" "${GOLDEN}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
                "${BENCH} ${args}: stdout ${out} differs from ${GOLDEN}")
    endif()
endfunction()

check_run(default --jobs 1)
check_run(soa --backend soa --jobs 2)
