# ports.sh — sourced by the smoke and metrics scripts to pick loopback
# ports for the processes they start.
#
# base_port N prints a base port P such that P … P+N-1 all lie below the
# kernel's ephemeral range (the lower bound in
# /proc/sys/net/ipv4/ip_local_port_range, 32768 when the file is absent),
# so no client socket of another process on the box can already hold one.

base_port() {
	local lo=32768 span
	if [ -r /proc/sys/net/ipv4/ip_local_port_range ]; then
		read -r lo _ </proc/sys/net/ipv4/ip_local_port_range
	fi
	span=$((lo - 10000 - $1))
	if [ "$span" -lt 1 ]; then
		echo "base_port: the ephemeral range starts at $lo, leaving no room for $1 ports from 10000" >&2
		return 1
	fi
	echo $((10000 + RANDOM % span))
}
