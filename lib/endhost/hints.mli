(** Bootstrapping hint discovery (Section 4.1 and Appendix A).

    A client joining a SCIERA AS must find the local bootstrapping server
    without manual configuration. Hints ride on zero-conf protocols already
    present in the network: DHCP options, IPv6 NDP router advertisements,
    and several DNS-based records. Which mechanisms apply depends on what
    the network deploys — Table 2 of the paper; {!available} reproduces
    that matrix. *)

type mechanism =
  | Dhcp_vivo  (** DHCPv4 Vendor-Identifying Vendor Option (RFC 3925). *)
  | Dhcp_option72  (** DHCPv4 default WWW-server option. *)
  | Dhcpv6_vsio  (** DHCPv6 Vendor-specific Information Option (RFC 3315). *)
  | Ipv6_ndp_ra  (** NDP router advertisements carrying DNS config (RFC 6106). *)
  | Dns_srv  (** DNS SRV record [_sciondiscovery._tcp] (RFC 2782). *)
  | Dns_sd  (** DNS service discovery PTR + SRV (RFC 6763). *)
  | Mdns  (** Multicast DNS (RFC 6762). *)
  | Dns_naptr  (** DNS NAPTR [x-sciondiscovery:TCP] (RFC 2915). *)

val all : mechanism list
val name : mechanism -> string

(** What zero-conf technology the client's network segment offers —
    the columns of Table 2. *)
type network_env = {
  static_ips_only : bool;
  dhcp : bool;  (** Dynamic DHCPv4 leases. *)
  dhcpv6 : bool;
  ipv6_ras : bool;
  dns_search_domain : bool;  (** Local search domain with resolver access. *)
}

type availability = Available | Combined | Not_applicable
(** [Combined] means usable only in combination with another mechanism
    (marked "M" in Table 2). *)

val available : mechanism -> network_env -> availability

val preferred_order : network_env -> mechanism list
(** Mechanisms worth probing in this environment (Available first, then
    Combined), in the bootstrapper's probe order. *)

type hint = { server : Scion_addr.Ipv4.endpoint; via : mechanism }

