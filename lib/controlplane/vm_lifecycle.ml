open Taichi_engine
open Taichi_os
open Taichi_metrics

type params = {
  command_parse : Time_ns.t;
  devices_per_vm : int;
  device : Device_mgmt.params;
  qemu_notify : Time_ns.t;
  host_boot : Time_ns.t;
}

let default_params ~rng =
  {
    command_parse = Time_ns.ms 1;
    devices_per_vm = 5;
    device = Device_mgmt.default_params ~rng;
    qemu_notify = Time_ns.us 500;
    host_boot = Time_ns.ms 50;
  }

let at_density ~base d =
  {
    base with
    devices_per_vm =
      Int.max 1 (int_of_float (float_of_int base.devices_per_vm *. d));
  }

let slo = Time_ns.ms 150

let startup_task ?(tenant = 0) ~sim ~rng ~params ~locks ~affinity ~name ~recorder
    () =
  let task_ref = ref None in
  let record () =
    match !task_ref with
    | Some task ->
        let cp_time = Sim.now sim - task.Task.spawned_at in
        Recorder.observe recorder (cp_time + params.host_boot)
    | None -> ()
  in
  let instrs =
    [ Program.compute params.command_parse ]
    @ [
        Program.Repeat
          ( params.devices_per_vm,
            Device_mgmt.device_init_program ~rng ~params:params.device ~locks );
      ]
    @ [
        Program.kernel_routine ~preemptible:true params.qemu_notify;
        Program.Gen
          (fun () ->
            record ();
            []);
      ]
  in
  let task = Task.create ~tenant ~affinity ~name ~step:(Program.to_step instrs) () in
  task_ref := Some task;
  task
