module majority(a, b, c, maj);
  input a;
  input b;
  input c;
  output maj;
  wire w0;
  wire w1;
  wire w2;
  wire w3;
  assign w0 = a ^ b;
  assign w1 = a ^ c;
  assign w2 = w0 & w1;
  assign w3 = a ^ w2;
  assign maj = w3;
endmodule
