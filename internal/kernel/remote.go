package kernel

import (
	"fmt"

	"repro/internal/bin"
)

// SSHPort is where every node's sshd listens.
const SSHPort = 22

// StartInfra registers the ssh/sshd programs and starts an sshd on
// every node.  It must run before Engine.Run starts programs that use
// ssh.
func StartInfra(c *Cluster) {
	c.Register("sshd", ProgramFunc(sshdMain))
	c.Register("ssh", ProgramFunc(sshMain))
	for _, n := range c.Nodes() {
		if _, err := n.Kern.Spawn("sshd", nil, nil); err != nil {
			panic(err)
		}
	}
}

// sshdMain accepts connections and spawns the requested command with
// the caller's environment — enough of sshd for mpdboot-style remote
// process launch (§3: "mpdboot will call ssh to spawn remote
// processes").
func sshdMain(t *Task, _ []string) {
	lfd, err := t.ListenTCP(SSHPort)
	if err != nil {
		t.Printf("sshd: %v\n", err)
		return
	}
	for {
		conn, err := t.Accept(lfd)
		if err != nil {
			return
		}
		c := conn
		t.P.SpawnTask("session", false, func(s *Task) { sshdSession(s, c) })
	}
}

func sshdSession(t *Task, fd int) {
	defer t.Close(fd)
	envB, err := t.RecvFrame(fd)
	if err != nil {
		return
	}
	env, err := DecodeEnv(envB)
	if err != nil {
		return
	}
	cmdB, err := t.RecvFrame(fd)
	if err != nil {
		return
	}
	cmd, err := DecodeStrings(cmdB)
	if err != nil || len(cmd) == 0 {
		return
	}
	p, err := t.P.Kern.Spawn(cmd[0], cmd[1:], env)
	var status bin.Encoder
	if err != nil {
		status.U64(^uint64(0))
	} else {
		status.U64(uint64(p.Pid))
	}
	t.SendFrame(fd, status.B)
}

// sshMain is the ssh client: ssh <host> <prog> [args...].  It carries
// the local environment to the remote side, which is how LD_PRELOAD
// (and therefore DMTCP) follows computations across nodes.
func sshMain(t *Task, args []string) {
	if len(args) < 2 {
		t.Printf("usage: ssh host prog args...\n")
		t.Exit(2)
	}
	host, cmd := args[0], args[1:]
	fd := t.Socket()
	if err := t.Connect(fd, Addr{Host: host, Port: SSHPort}); err != nil {
		t.Printf("ssh: connect %s: %v\n", host, err)
		t.Exit(255)
	}
	defer t.Close(fd)
	if err := t.SendFrame(fd, EncodeEnv(t.P.Env)); err != nil {
		t.Exit(255)
	}
	if err := t.SendFrame(fd, EncodeStrings(cmd)); err != nil {
		t.Exit(255)
	}
	status, err := t.RecvFrame(fd)
	if err != nil || len(status) != 8 {
		t.Exit(255)
	}
	d := bin.Decoder{B: status}
	if d.U64() == ^uint64(0) {
		t.Printf("ssh: remote spawn failed\n")
		t.Exit(1)
	}
}

// SSHSpawn runs "ssh host prog args..." as a child process of t's
// process and waits for it (the fork+exec+wait a shell would do).
// The DMTCP exec wrapper sees and may rewrite the command line.
func (t *Task) SSHSpawn(host, prog string, args ...string) error {
	argv := append([]string{host, prog}, args...)
	pid := t.ForkFn("ssh", func(child *Task) {
		if err := child.Exec("ssh", argv); err != nil {
			child.Exit(127)
		}
	})
	code, err := t.WaitPid(pid)
	if err != nil {
		return err
	}
	if code != 0 {
		return fmt.Errorf("kernel: ssh %s %s exited %d", host, prog, code)
	}
	return nil
}
