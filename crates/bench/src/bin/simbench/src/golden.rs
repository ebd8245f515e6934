//! Golden simulated digests at the default seed (1989), in
//! `digest::render` form: each cell's label, then its non-zero fields.
//!
//! The KL1 workloads' inputs do not depend on the seed, so their digests
//! hold at every seed. After an intended change to simulated behaviour,
//! regenerate an entry with `simbench digest --workload NAME`.

/// `(workload, digest text)` pairs.
pub const DIGESTS: &[(&str, &str)] = &[
    (
        "kl1-tri-profiled",
        "
Tri/pim
    answer_fnv=6937151015893569589 makespan=201825 bus_cycles=64728
    memory_busy_cycles=46224 pe.busy=1394867 pe.bus_wait=186926 pe.lock_wait=999
    pe.idle=31760 machine.reductions=60638 machine.suspensions=4816
    machine.instructions=837758 machine.goals_migrated=508 access.lookups=1394846
    access.hits=1355599 access.dw_allocations=34286 access.purges=23714
    access.dirty_purges=22948 locks.lr_total=21869 locks.lr_hits=21846
    locks.lr_hits_exclusive=21173 locks.unlock_total=21869 locks.unlock_no_waiter=21845
    locks.lr_refused=26 locks.max_simultaneous_locks=1 refs.inst.R=985559
    refs.heap.R=157282 refs.heap.W=33535 refs.heap.DW=11181 refs.heap.LR=21869
    refs.heap.UW=21853 refs.heap.U=16 refs.goal.R=15886 refs.goal.W=51078
    refs.goal.DW=18914 refs.goal.ER=50684 refs.goal.RP=3422 refs.susp.W=4800
    refs.susp.DW=4800 refs.susp.ER=4800 refs.susp.RP=4800 refs.comm.W=2330
    refs.comm.RI=2032 obs.transitions=74410 obs.bus_grants=10907 obs.lock_waits=26
    obs.reductions=60638 obs.suspensions=4816 obs.resumptions=4816
",
    ),
    (
        "kl1-grid",
        "
Semi/pim
    answer_fnv=576317848889066838 makespan=180955 bus_cycles=101206
    memory_busy_cycles=10544 pe.busy=772273 pe.bus_wait=244168 pe.lock_wait=362
    pe.idle=430768 machine.reductions=23215 machine.suspensions=417
    machine.instructions=420702 machine.goals_migrated=1599 access.lookups=772255
    access.hits=753268 access.dw_allocations=6172 access.purges=5030
    access.dirty_purges=3331 locks.lr_total=4832 locks.lr_hits=4821
    locks.lr_hits_exclusive=3278 locks.unlock_total=4832 locks.unlock_no_waiter=4820
    locks.lr_refused=13 locks.max_simultaneous_locks=1 refs.inst.R=488822
    refs.heap.R=218578 refs.heap.W=7273 refs.heap.DW=2425 refs.heap.LR=4832
    refs.heap.UW=4814 refs.heap.U=18 refs.goal.R=3047 refs.goal.W=9572 refs.goal.DW=4631
    refs.goal.ER=9572 refs.goal.RP=1584 refs.susp.W=399 refs.susp.DW=399
    refs.susp.ER=399 refs.susp.RP=399 refs.comm.W=9100 refs.comm.RI=6396
Semi/illinois
    answer_fnv=576317848889066838 makespan=256420 bus_cycles=188270
    memory_busy_cycles=124256 pe.busy=775500 pe.bus_wait=745972 pe.lock_wait=1563
    pe.idle=528256 machine.reductions=23215 machine.suspensions=411
    machine.instructions=420702 machine.goals_migrated=1873 access.lookups=775485
    access.hits=757441 locks.lr_total=4826 locks.lr_hits=4811 locks.unlock_total=4826
    locks.lr_refused=44 refs.inst.R=488810 refs.heap.R=218564 refs.heap.W=9698
    refs.heap.LR=4826 refs.heap.UW=4812 refs.heap.U=14 refs.goal.R=14167
    refs.goal.W=14167 refs.susp.R=794 refs.susp.W=794 refs.comm.R=7492 refs.comm.W=11318
Pascal/pim
    answer_fnv=12180069055865607307 makespan=127214 bus_cycles=124883
    memory_busy_cycles=60712 pe.busy=419518 pe.bus_wait=572040 pe.lock_wait=1175
    pe.idle=24912 machine.reductions=11475 machine.suspensions=374
    machine.instructions=216932 machine.goals_migrated=335 access.lookups=419493
    access.hits=394304 access.dw_allocations=11905 access.purges=872
    access.dirty_purges=494 locks.lr_total=11699 locks.lr_hits=11672
    locks.lr_hits_exclusive=10925 locks.unlock_total=11699 locks.unlock_no_waiter=11672
    locks.lr_refused=27 locks.max_simultaneous_locks=1 refs.inst.R=262831
    refs.heap.R=81077 refs.heap.W=33636 refs.heap.DW=11215 refs.heap.LR=11699
    refs.heap.UW=11674 refs.heap.U=25 refs.goal.R=523 refs.goal.W=1046 refs.goal.DW=523
    refs.goal.ER=523 refs.goal.RP=523 refs.susp.W=349 refs.susp.DW=349 refs.susp.ER=349
    refs.susp.RP=349 refs.comm.W=1460 refs.comm.RI=1340
Pascal/illinois
    answer_fnv=12180069055865607307 makespan=299658 bus_cycles=285706
    memory_busy_cycles=191128 pe.busy=413625 pe.bus_wait=1927426 pe.lock_wait=419
    pe.idle=55760 machine.reductions=11475 machine.suspensions=213
    machine.instructions=215793 machine.goals_migrated=228 access.lookups=413624
    access.hits=389666 locks.lr_total=11538 locks.lr_hits=11534 locks.unlock_total=11538
    locks.lr_refused=6 refs.inst.R=261370 refs.heap.R=79416 refs.heap.W=44851
    refs.heap.LR=11538 refs.heap.UW=11537 refs.heap.U=1 refs.goal.R=1086
    refs.goal.W=1086 refs.susp.R=424 refs.susp.W=424 refs.comm.R=912 refs.comm.W=974
",
    ),
    (
        "replay-heap-mix",
        "
replay/pim
    makespan=1978715 bus_cycles=1978673 memory_busy_cycles=524104 pe.busy=300000
    pe.bus_wait=15499241 pe.idle=30432 access.lookups=300000 access.hits=59711
    refs.heap.R=209796 refs.heap.W=90204
",
    ),
    (
        "replay-aurora",
        "
replay/pim
    makespan=510170 bus_cycles=507592 memory_busy_cycles=253448 pe.busy=828785
    pe.bus_wait=3107008 pe.lock_wait=55541 pe.idle=89984 access.lookups=827685
    access.hits=750569 access.dw_allocations=31087 access.dw_contract_violations=114
    access.purges=6088 access.dirty_purges=6088 locks.lr_total=11223 locks.lr_hits=1301
    locks.lr_hits_exclusive=1301 locks.unlock_total=11223 locks.unlock_no_waiter=10172
    locks.lr_refused=1100 locks.max_simultaneous_locks=1 refs.heap.R=257799
    refs.heap.W=301301 refs.heap.DW=83654 refs.goal.W=84214 refs.goal.DWD=28074
    refs.susp.W=18967 refs.susp.DW=6397 refs.susp.ER=24833 refs.comm.LR=11223
    refs.comm.UW=11223
",
    ),
];
