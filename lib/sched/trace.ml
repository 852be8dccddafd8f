module Json = Harness.Json

type scenario = {
  stm : string;
  threads : int;
  accounts : int;
  txns_per_thread : int;
  init_balance : int;
  abort_every : int;
  audit_every : int;
  wseed : int;
  bug : string option;
}

let default_scenario =
  {
    stm = "2PLSF";
    threads = 2;
    accounts = 4;
    txns_per_thread = 6;
    init_balance = 128;
    abort_every = 3;
    audit_every = 4;
    wseed = 1;
    bug = None;
  }

type t = {
  version : int;
  strategy : string;
  failure : string option;
  scenario : scenario;
  decisions : (int * int) array;
}

let version = 1

let scenario_to_json (s : scenario) : Json.t =
  Json.Obj
    [
      ("stm", Json.Str s.stm);
      ("threads", Json.Num (float_of_int s.threads));
      ("accounts", Json.Num (float_of_int s.accounts));
      ("txns_per_thread", Json.Num (float_of_int s.txns_per_thread));
      ("init_balance", Json.Num (float_of_int s.init_balance));
      ("abort_every", Json.Num (float_of_int s.abort_every));
      ("audit_every", Json.Num (float_of_int s.audit_every));
      ("wseed", Json.Num (float_of_int s.wseed));
      ("bug", match s.bug with None -> Json.Null | Some b -> Json.Str b);
    ]

let req what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "schedule trace: missing %s" what)

let scenario_of_json (j : Json.t) : scenario =
  let int_or d k = Option.value ~default:d (Json.int_field j k) in
  {
    stm = req "scenario.stm" (Json.str_field j "stm");
    threads = req "scenario.threads" (Json.int_field j "threads");
    accounts = req "scenario.accounts" (Json.int_field j "accounts");
    txns_per_thread =
      req "scenario.txns_per_thread" (Json.int_field j "txns_per_thread");
    init_balance = int_or default_scenario.init_balance "init_balance";
    abort_every = int_or 0 "abort_every";
    audit_every = int_or 0 "audit_every";
    wseed = int_or default_scenario.wseed "wseed";
    bug = Json.str_field j "bug";
  }

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("version", Json.Num (float_of_int t.version));
      ("strategy", Json.Str t.strategy);
      ("failure", match t.failure with None -> Json.Null | Some f -> Json.Str f);
      ("scenario", scenario_to_json t.scenario);
      ( "decisions",
        Json.Arr
          (Array.to_list t.decisions
          |> List.map (fun (slot, site) ->
                 Json.Arr
                   [
                     Json.Num (float_of_int slot); Json.Num (float_of_int site);
                   ])) );
    ]

let of_json (j : Json.t) : t =
  let v = req "version" (Json.int_field j "version") in
  if v <> version then
    failwith (Printf.sprintf "schedule trace: unsupported version %d" v);
  let decision = function
    | Json.Arr [ Json.Num slot; Json.Num site ] ->
        (int_of_float slot, int_of_float site)
    | _ -> failwith "schedule trace: malformed decision"
  in
  {
    version = v;
    strategy = Option.value ~default:"unknown" (Json.str_field j "strategy");
    failure = Json.str_field j "failure";
    scenario = scenario_of_json (req "scenario" (Json.mem j "scenario"));
    decisions =
      req "decisions" (Json.arr_field j "decisions")
      |> List.map decision |> Array.of_list;
  }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

let load path = of_json (Json.parse_file path)
