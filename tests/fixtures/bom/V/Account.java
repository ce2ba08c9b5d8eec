﻿package bank;

public class Account {
    private long balance;
    private String owner;

    public Account(String owner) { this.owner = owner; }
    public void deposit(long amount) { balance += amount; }
    public long balance() { return balance; }
    public String owner() { return owner; }
}
