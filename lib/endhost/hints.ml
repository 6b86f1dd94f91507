type mechanism =
  | Dhcp_vivo
  | Dhcp_option72
  | Dhcpv6_vsio
  | Ipv6_ndp_ra
  | Dns_srv
  | Dns_sd
  | Mdns
  | Dns_naptr

let all = [ Dhcp_vivo; Dhcp_option72; Dhcpv6_vsio; Ipv6_ndp_ra; Dns_srv; Dns_sd; Mdns; Dns_naptr ]

let name = function
  | Dhcp_vivo -> "DHCP VIVO"
  | Dhcp_option72 -> "DHCP option 72"
  | Dhcpv6_vsio -> "DHCPv6 VSIO"
  | Ipv6_ndp_ra -> "IPv6 NDP"
  | Dns_srv -> "DNS SRV"
  | Dns_sd -> "DNS-SD"
  | Mdns -> "mDNS"
  | Dns_naptr -> "DNS-NAPTR"

type network_env = {
  static_ips_only : bool;
  dhcp : bool;
  dhcpv6 : bool;
  ipv6_ras : bool;
  dns_search_domain : bool;
}

type availability = Available | Combined | Not_applicable

(* Table 2 of the paper, row by row. *)
let available m env =
  match m with
  | Dhcp_vivo | Dhcp_option72 -> if env.dhcp then Available else Not_applicable
  | Dhcpv6_vsio -> if env.dhcpv6 then Available else Not_applicable
  | Ipv6_ndp_ra ->
      if env.ipv6_ras then Available
      else if env.static_ips_only then Available (* "Y if IPv6" — static v6 config *)
      else if env.dhcpv6 then Combined
      else if env.dns_search_domain then Available
      else Not_applicable
  | Dns_srv | Dns_sd | Dns_naptr ->
      if env.dns_search_domain || env.ipv6_ras then Available
      else if env.dhcp || env.dhcpv6 then Combined
      else Not_applicable
  | Mdns ->
      if env.static_ips_only || env.dns_search_domain || env.ipv6_ras then Available
      else if env.dhcp || env.dhcpv6 then Combined
      else Not_applicable

let preferred_order env =
  let avail = List.filter (fun m -> available m env = Available) all in
  let combined = List.filter (fun m -> available m env = Combined) all in
  avail @ combined

type hint = { server : Scion_addr.Ipv4.endpoint; via : mechanism }

